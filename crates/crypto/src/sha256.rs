//! SHA-256 (FIPS 180-4).
//!
//! Every digest runs through one block kernel, `kernel::compress_blocks`.
//! On x86_64 CPUs that report the SHA extensions it compresses with the
//! SHA-NI instructions; everywhere else it runs the portable `compress`
//! below, which the tests also use as the reference. The CPU alone picks
//! the path, and the digest is bit-identical either way.

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash value: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 64 {
                kernel::compress_blocks(&mut self.state, &self.buffer);
                self.buffer_len = 0;
            }
        }
        let (blocks, tail) = data.split_at(data.len() - data.len() % 64);
        if !blocks.is_empty() {
            kernel::compress_blocks(&mut self.state, blocks);
        }
        if !tail.is_empty() {
            self.buffer[..tail.len()].copy_from_slice(tail);
            self.buffer_len = tail.len();
        }
    }

    /// Finish and return the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let (blocks, len) = md_pad(&self.buffer[..self.buffer_len], self.total_len);
        kernel::compress_blocks(&mut self.state, &blocks[..len]);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Merkle–Damgård strengthening (FIPS 180-4 §5.1.1), shared by SHA-256
/// and SHA-1: the buffered `tail` of the message, then `0x80`, zeros, and
/// the message length in bits (`total_len` bytes) as a 64-bit big-endian
/// integer. A tail of at most 55 bytes leaves room for the length in one
/// block; a 56–63-byte tail spills into a second. Returns the padded
/// blocks and how many of their bytes (64 or 128) to compress.
pub(crate) fn md_pad(tail: &[u8], total_len: u64) -> ([u8; 128], usize) {
    debug_assert!(tail.len() < 64, "the tail is a partial block");
    let mut blocks = [0u8; 128];
    blocks[..tail.len()].copy_from_slice(tail);
    blocks[tail.len()] = 0x80;
    let len = if tail.len() < 56 { 64 } else { 128 };
    blocks[len - 8..len].copy_from_slice(&total_len.wrapping_mul(8).to_be_bytes());
    (blocks, len)
}

/// Portable compression of one block: the path on CPUs without the SHA
/// extensions, and the reference the hardware kernel is tested against.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes([
            block[i * 4],
            block[i * 4 + 1],
            block[i * 4 + 2],
            block[i * 4 + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The block kernel and its one dispatch point. This module is the only
/// code in the workspace that may use `unsafe` (the workspace denies
/// `unsafe_code`): the SHA-NI instructions are reachable only through
/// `std::arch` intrinsics, which the compiler cannot prove the CPU has.
#[allow(unsafe_code)]
mod kernel {
    use super::compress;

    /// Compress each 64-byte block of `blocks` into `state`, in order.
    /// `blocks.len()` is a multiple of 64. The only caller of either kernel.
    ///
    /// The CPU check is std's `is_x86_feature_detected!`, which caches the
    /// answer in std's own atomic.
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: the four `is_x86_feature_detected!` checks above
            // found `sha`, `sse2`, `ssse3` and `sse4.1` on this CPU, which
            // are the features `compress_blocks_shani` is compiled for and
            // its only requirement.
            unsafe { compress_blocks_shani(state, blocks) };
            return;
        }
        for block in blocks.chunks_exact(64) {
            compress(
                state,
                block.try_into().expect("chunks_exact yields 64 bytes"),
            );
        }
    }

    /// Two SHA-256 rounds per `_mm_sha256rnds2_epu32`, four per step: add
    /// the step's round constants to the four message words `$w`, run two
    /// rounds on the low pair, then two on the high pair. Each call swaps
    /// which register holds ABEF and which CDGH, so the pair alternates.
    #[cfg(target_arch = "x86_64")]
    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $w:expr, $step:literal) => {{
            let wk = _mm_add_epi32(
                $w,
                _mm_set_epi32(
                    K[4 * $step + 3] as i32,
                    K[4 * $step + 2] as i32,
                    K[4 * $step + 1] as i32,
                    K[4 * $step] as i32,
                ),
            );
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0e));
        }};
    }

    /// The next four message-schedule words from the previous sixteen held
    /// in `$w0..$w3` (oldest first): `σ0` terms by `sha256msg1`, the
    /// `W[t-7]` terms by shifting `$w3:$w2` one word, `σ1` by `sha256msg2`.
    #[cfg(target_arch = "x86_64")]
    macro_rules! schedule {
        ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {
            _mm_sha256msg2_epu32(
                _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4)),
                $w3,
            )
        };
    }

    /// SHA-NI compression of each 64-byte block of `blocks` into `state`.
    /// The state is rearranged once into the ABEF/CDGH register layout the
    /// round instruction takes, stays there across every block, and is
    /// rearranged back at the end. Loads and stores are unaligned
    /// (`loadu`/`storeu`), so neither argument needs any alignment.
    ///
    /// # Safety
    ///
    /// The caller must have detected the `sha`, `sse2`, `ssse3` and
    /// `sse4.1` CPU features at run time with `is_x86_feature_detected!`.
    /// Running these instructions on a CPU without them is undefined
    /// behaviour.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn compress_blocks_shani(state: &mut [u32; 8], blocks: &[u8]) {
        use super::K;
        use std::arch::x86_64::*;

        // Byte shuffle that turns each big-endian message word into a lane.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // Both loads read 16 bytes inside the 32-byte `[u32; 8]`.
        let dcba = _mm_loadu_si128(state.as_ptr().cast());
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        for block in blocks.chunks_exact(64) {
            let block: &[u8; 64] = block.try_into().expect("chunks_exact yields 64 bytes");
            // The four loads read bytes 0..16, 16..32, 32..48 and 48..64 of
            // the 64-byte block.
            let p = block.as_ptr();
            let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p.cast()), bswap);
            let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(16).cast()), bswap);
            let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(32).cast()), bswap);
            let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(48).cast()), bswap);
            let (abef_in, cdgh_in) = (abef, cdgh);

            rounds4!(abef, cdgh, w0, 0);
            rounds4!(abef, cdgh, w1, 1);
            rounds4!(abef, cdgh, w2, 2);
            rounds4!(abef, cdgh, w3, 3);
            // Steps 4..16 extend the schedule in place: the register that
            // held the oldest four words receives the newest four.
            w0 = schedule!(w0, w1, w2, w3);
            rounds4!(abef, cdgh, w0, 4);
            w1 = schedule!(w1, w2, w3, w0);
            rounds4!(abef, cdgh, w1, 5);
            w2 = schedule!(w2, w3, w0, w1);
            rounds4!(abef, cdgh, w2, 6);
            w3 = schedule!(w3, w0, w1, w2);
            rounds4!(abef, cdgh, w3, 7);
            w0 = schedule!(w0, w1, w2, w3);
            rounds4!(abef, cdgh, w0, 8);
            w1 = schedule!(w1, w2, w3, w0);
            rounds4!(abef, cdgh, w1, 9);
            w2 = schedule!(w2, w3, w0, w1);
            rounds4!(abef, cdgh, w2, 10);
            w3 = schedule!(w3, w0, w1, w2);
            rounds4!(abef, cdgh, w3, 11);
            w0 = schedule!(w0, w1, w2, w3);
            rounds4!(abef, cdgh, w0, 12);
            w1 = schedule!(w1, w2, w3, w0);
            rounds4!(abef, cdgh, w1, 13);
            w2 = schedule!(w2, w3, w0, w1);
            rounds4!(abef, cdgh, w2, 14);
            w3 = schedule!(w3, w0, w1, w2);
            rounds4!(abef, cdgh, w3, 15);

            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgef = _mm_alignr_epi8(dchg, feba, 8);
        // Both stores write 16 bytes inside the 32-byte `[u32; 8]`.
        _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), hgef);
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The byte pattern `0, 1, …, 255, 0, 1, …` of length `len`.
    fn counting(len: usize) -> Vec<u8> {
        (0..len).map(|i| i as u8).collect()
    }

    /// SHA-256 straight from FIPS 180-4 on the portable kernel alone: the
    /// message padded byte by byte, then one `compress` per block.
    fn portable_sha256(data: &[u8]) -> [u8; 32] {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0x00);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in msg.chunks_exact(64) {
            compress(&mut state, block.try_into().unwrap());
        }
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn nist_vectors() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    /// Digests of [`counting`] messages at the padding boundaries, computed
    /// with coreutils `sha256sum`.
    #[test]
    fn padding_boundary_known_answers() {
        for (len, digest) in [
            (
                55,
                "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59",
            ),
            (
                56,
                "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562",
            ),
            (
                63,
                "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488",
            ),
            (
                64,
                "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108",
            ),
            (
                65,
                "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781",
            ),
            (
                119,
                "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6",
            ),
            (
                120,
                "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c",
            ),
            (
                1000,
                "a8af099bf2e878609558dbf69d8f88f4a31040a8cf84b549a0cfa912f12ffc3f",
            ),
        ] {
            assert_eq!(hex(&sha256(&counting(len))), digest, "len {len}");
        }
    }

    /// Every length 0..=256, cut at three points into four `update` calls,
    /// against [`portable_sha256`].
    #[test]
    fn every_length_and_split_matches_portable() {
        for len in 0..=256usize {
            let data = counting(len);
            let want = portable_sha256(&data);
            assert_eq!(sha256(&data), want, "len {len} one-shot");
            let cuts = [len / 3, len / 2, len * 5 / 6];
            let mut h = Sha256::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([len]) {
                h.update(&data[from..cut]);
                from = cut;
            }
            assert_eq!(h.finalize(), want, "len {len} cut at {cuts:?}");
        }
    }

    /// The dispatching kernel against the portable `compress` on 2,000
    /// random `(state, blocks)` pairs of one to four blocks, so the
    /// hardware path also carries its state across blocks. On a CPU
    /// without the SHA extensions the dispatch runs the portable kernel
    /// itself, and this test checks nothing.
    #[test]
    fn kernel_matches_portable_compress() {
        // splitmix64: a generator that does not hash, so the inputs do not
        // depend on the code under test.
        let mut seed = 0x5eed_u64;
        let mut next = move || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for case in 0..2000 {
            let mut state = [0u32; 8];
            for word in &mut state {
                *word = next() as u32;
            }
            let blocks: Vec<u8> = (0..64 * (1 + case % 4)).map(|_| next() as u8).collect();
            let mut want = state;
            for block in blocks.chunks_exact(64) {
                compress(&mut want, block.try_into().unwrap());
            }
            let mut got = state;
            kernel::compress_blocks(&mut got, &blocks);
            assert_eq!(got, want, "case {case}");
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(10_000).collect();
        for split in [0, 1, 63, 64, 65, 127, 5000, 9999, 10_000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split {split}");
        }
    }

    #[test]
    fn length_boundary_inputs() {
        // Inputs around the 55/56-byte padding boundary.
        for len in 50..70usize {
            let data = vec![0x5a; len];
            let d1 = sha256(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(&[*b]);
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }
}
