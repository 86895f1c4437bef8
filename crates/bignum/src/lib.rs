//! Arbitrary-precision unsigned integer arithmetic.
//!
//! This crate is the numeric substrate for `ccc-crypto`: it provides the
//! big-integer machinery (schoolbook multiplication, Knuth-D division,
//! Montgomery-form modular exponentiation, Miller–Rabin primality) backing
//! a real discrete-log signature scheme for the synthetic Web PKI used by
//! chain-chaos. It stays dependency-free, but the hot path is engineered:
//! [`modpow`] dispatches odd moduli to CIOS Montgomery multiplication with
//! 4-bit fixed-window exponentiation, and [`FixedBaseTable`] provides
//! Brauer fixed-base windowing, at any window width, for bases that are
//! exponentiated millions of times per corpus pass (see `montgomery`).
//! Both run one CIOS kernel into caller-owned scratch, so an
//! exponentiation allocates per call, never per product, and a table is
//! one contiguous limb vector. Those two primitives are the whole
//! exponentiation surface: signature verification in `ccc-crypto` is one
//! fixed-base `g^s` times one `y^(q−e)`, the latter from `pow_mont` or a
//! per-key table.

mod modular;
mod montgomery;
mod prime;
mod uint;

pub use modular::{modinv, modpow, modpow_naive};
pub use montgomery::{FixedBaseTable, MontElem, MontgomeryCtx};
pub use prime::is_probable_prime;
pub use uint::Uint;
