//! Subgroup membership at the corpus key-construction boundary.
//!
//! `PublicKey::from_bytes` is deliberately permissive (it checks only
//! `y ∈ [2, p)`, like real validators parsing SPKIs); the order-`q`
//! subgroup check is an explicit, cached opt-in. Two properties are pinned
//! here: every key the corpus generator constructs — roots,
//! intermediates, sub-CAs, leaves — is a genuine subgroup member (they are
//! all `g^x`, so anything else would be a generator bug), and a crafted
//! small-order element smuggled through `from_bytes` is caught by the
//! check.

use ccc_bignum::Uint;
use ccc_crypto::{Group, PublicKey};
use ccc_testgen::{Corpus, CorpusSpec};

#[test]
fn corpus_constructed_keys_are_subgroup_members() {
    let corpus = Corpus::new(CorpusSpec::calibrated(7, 50));
    let mut checked = 0usize;
    for root in &corpus.universe.roots {
        assert!(
            root.cert.public_key().is_subgroup_member(),
            "root {} key escaped the subgroup",
            root.name
        );
        checked += 1;
        for int in &root.intermediates {
            assert!(
                int.cert.public_key().is_subgroup_member(),
                "intermediate of {} escaped the subgroup",
                root.name
            );
            checked += 1;
        }
    }
    // Served observations exercise leaf + sub-CA keys too.
    let mut served_checked = 0usize;
    corpus.for_each(|obs| {
        for cert in &obs.served {
            assert!(cert.public_key().is_subgroup_member());
            served_checked += 1;
        }
    });
    assert!(checked > 0, "universe had no CA keys to check");
    assert!(served_checked > 0, "corpus served no certificates");
}

#[test]
fn crafted_order_two_element_is_caught() {
    // y = p - 1 has order 2 in Z_p* (it is -1): it passes the range check
    // in from_bytes but fails y^q ≡ 1, for both built-in groups.
    for group in [Group::simulation_256(), Group::rfc3526_1536()] {
        let bytes = group
            .p
            .checked_sub(&Uint::one())
            .expect("p > 1")
            .to_bytes_be_padded(group.element_len)
            .expect("p - 1 fits the element length");
        let outsider = PublicKey::from_bytes(group, &bytes).expect("range check admits p - 1");
        assert!(
            !outsider.is_subgroup_member(),
            "{:?}: order-2 element accepted as subgroup member",
            group.id
        );
    }
}
