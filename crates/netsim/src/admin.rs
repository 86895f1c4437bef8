//! Administrator deployment behaviours.
//!
//! The bridge between what a CA delivers ([`crate::ca::IssuedBundle`]) and
//! what a server is given ([`crate::httpserver::DeploymentFiles`]). Each
//! behaviour models a configuration pattern the paper attributes real
//! non-compliance to: naive file merges that inherit a reversed bundle,
//! leaf certificates pasted into the chain file (duplicate leaves on old
//! Apache), dropped bundles (incomplete chains), stale leftovers from
//! previous renewals, foreign chains from co-hosted domains, and
//! copy-paste multiplication of the bundle (the ns3.link 29-certificate
//! pattern).

use crate::ca::IssuedBundle;
use crate::httpserver::{DeploymentFiles, FileLayout, HttpServerKind};
use ccc_x509::Certificate;
use std::fmt;

/// A deployment behaviour (one per corpus domain).
#[derive(Clone, Debug)]
pub enum AdminBehavior {
    /// Follow the CA/server guidance: compliant chain, root omitted.
    FollowGuide,
    /// Concatenate the delivered files verbatim (inherits any bundle
    /// reversal or included root).
    NaiveMerge,
    /// Paste the leaf into the chain file too (duplicate leaf).
    LeafInChainFile,
    /// Deploy only the leaf file, no bundle (incomplete chain).
    DropBundle,
    /// Leave `n` previous leaf certificates in the file ahead of cleanup
    /// (webcanny.com pattern: multiple leaves, newest first).
    StaleLeaves(Vec<Certificate>),
    /// Append another (unrelated) chain managed by the same admin
    /// (archives.gov.tw pattern).
    AppendForeignChain(Vec<Certificate>),
    /// Paste the bundle `n` extra times (ns3.link duplication pattern).
    DuplicateBundle(usize),
    /// Reverse the *entire* served list, leaf last.
    ReverseEverything,
    /// Deploy a chain for the wrong host (leaf CN/SAN does not match).
    WrongHostChain(Vec<Certificate>),
}

impl fmt::Display for AdminBehavior {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match self {
            AdminBehavior::FollowGuide => "follow-guide",
            AdminBehavior::NaiveMerge => "naive-merge",
            AdminBehavior::LeafInChainFile => "leaf-in-chain-file",
            AdminBehavior::DropBundle => "drop-bundle",
            AdminBehavior::StaleLeaves(_) => "stale-leaves",
            AdminBehavior::AppendForeignChain(_) => "append-foreign-chain",
            AdminBehavior::DuplicateBundle(_) => "duplicate-bundle",
            AdminBehavior::ReverseEverything => "reverse-everything",
            AdminBehavior::WrongHostChain(_) => "wrong-host-chain",
        };
        write!(f, "{label}")
    }
}

/// Errors an administrator can hit before even reaching the server.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AdminError {
    /// The behaviour needed a ca-bundle but the CA did not provide one.
    NoBundleAvailable,
}

impl fmt::Display for AdminError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdminError::NoBundleAvailable => write!(f, "CA provided no ca-bundle file"),
        }
    }
}

impl std::error::Error for AdminError {}

/// Assemble deployment files for `server` from the CA delivery, applying
/// the behaviour. Never fails: behaviours degrade gracefully when a file
/// is missing (e.g. a naive merge without a bundle deploys just the leaf,
/// which is exactly how incomplete TAIWAN-CA chains arise).
pub fn assemble(
    bundle: &IssuedBundle,
    behavior: &AdminBehavior,
    server: HttpServerKind,
) -> DeploymentFiles {
    // The certificates the CA delivered, in delivered order.
    let delivered_chain: Vec<Certificate> = bundle.fullchain.clone().unwrap_or_else(|| {
        let mut v = vec![bundle.leaf.clone()];
        if let Some(cb) = &bundle.ca_bundle {
            v.extend(cb.iter().cloned());
        }
        v
    });

    let (mut cert_file, mut chain_file): (Vec<Certificate>, Option<Vec<Certificate>>) =
        match behavior {
            AdminBehavior::FollowGuide => {
                // A careful admin produces the compliant chain regardless
                // of delivery order.
                let compliant = bundle.compliant_chain();
                match server.file_layout() {
                    FileLayout::SeparateLeafAndBundle => {
                        (vec![compliant[0].clone()], Some(compliant[1..].to_vec()))
                    }
                    _ => (compliant, None),
                }
            }
            AdminBehavior::NaiveMerge => match server.file_layout() {
                FileLayout::SeparateLeafAndBundle => (
                    vec![bundle.leaf.clone()],
                    bundle
                        .ca_bundle
                        .clone()
                        .or_else(|| bundle.fullchain.as_ref().map(|fc| fc[1..].to_vec())),
                ),
                _ => (delivered_chain.clone(), None),
            },
            AdminBehavior::LeafInChainFile => {
                let mut chain = vec![bundle.leaf.clone()];
                if let Some(cb) = &bundle.ca_bundle {
                    chain.extend(cb.iter().cloned());
                } else if let Some(fc) = &bundle.fullchain {
                    chain.extend(fc[1..].iter().cloned());
                }
                (vec![bundle.leaf.clone()], Some(chain))
            }
            AdminBehavior::DropBundle => (vec![bundle.leaf.clone()], None),
            AdminBehavior::StaleLeaves(old_leaves) => {
                // Newest leaf first, then progressively older ones, then
                // the chain.
                let mut file = vec![bundle.leaf.clone()];
                file.extend(old_leaves.iter().cloned());
                let rest: Option<Vec<Certificate>> = bundle
                    .ca_bundle
                    .clone()
                    .or_else(|| bundle.fullchain.as_ref().map(|fc| fc[1..].to_vec()));
                match server.file_layout() {
                    FileLayout::SeparateLeafAndBundle => (file, rest),
                    _ => {
                        if let Some(rest) = rest {
                            file.extend(rest);
                        }
                        (file, None)
                    }
                }
            }
            AdminBehavior::AppendForeignChain(foreign) => {
                let mut file = delivered_chain.clone();
                file.extend(foreign.iter().cloned());
                (file, None)
            }
            AdminBehavior::DuplicateBundle(times) => {
                let mut file = vec![bundle.leaf.clone()];
                let unit: Vec<Certificate> = bundle
                    .ca_bundle
                    .clone()
                    .or_else(|| bundle.fullchain.as_ref().map(|fc| fc[1..].to_vec()))
                    .unwrap_or_default();
                for _ in 0..=*times {
                    file.extend(unit.iter().cloned());
                }
                (file, None)
            }
            AdminBehavior::ReverseEverything => {
                let mut file = bundle.compliant_chain();
                if let Some(cb) = &bundle.ca_bundle {
                    // include the root when it was delivered
                    for c in cb {
                        if !file.contains(c) {
                            file.push(c.clone());
                        }
                    }
                }
                file.reverse();
                (file, None)
            }
            AdminBehavior::WrongHostChain(other_chain) => (other_chain.clone(), None),
        };

    // The admin holds the private key for the issued leaf; the key check
    // passes exactly when that leaf ends up first in the served list.
    let first_served = cert_file.first();
    let key_matches_first_cert = match behavior {
        AdminBehavior::WrongHostChain(_) => true, // they hold that host's key
        _ => first_served == Some(&bundle.leaf),
    };

    // Normalize empties.
    if let Some(cf) = &chain_file {
        if cf.is_empty() {
            chain_file = None;
        }
    }
    if cert_file.is_empty() {
        cert_file = vec![bundle.leaf.clone()];
    }

    DeploymentFiles {
        cert_file,
        chain_file,
        key_matches_first_cert,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::CaProfile;
    use ccc_asn1::Time;
    use ccc_crypto::Drbg;
    use ccc_rootstore::CaUniverse;

    fn issue(profile_name: &str, domain: &str) -> IssuedBundle {
        let u = CaUniverse::default_with_seed(13);
        let profiles = CaProfile::all();
        let p = profiles.iter().find(|p| p.name == profile_name).unwrap();
        p.issue(
            &u,
            0,
            domain,
            Time::from_ymd(2024, 2, 1).unwrap(),
            Time::from_ymd(2024, 11, 1).unwrap(),
            &mut Drbg::from_u64(77),
            false,
        )
    }

    #[test]
    fn follow_guide_is_compliant_everywhere() {
        let bundle = issue("GoGetSSL", "fg.sim"); // reversed delivery
        for server in [
            HttpServerKind::ApacheOld,
            HttpServerKind::Nginx,
            HttpServerKind::Iis,
        ] {
            let files = assemble(&bundle, &AdminBehavior::FollowGuide, server);
            let served = server.deploy(&files).unwrap();
            assert_eq!(served[0], bundle.leaf);
            assert!(served[0].verify_signature_with(served[1].public_key()));
        }
    }

    #[test]
    fn naive_merge_inherits_reversal() {
        let bundle = issue("GoGetSSL", "nm.sim");
        let files = assemble(&bundle, &AdminBehavior::NaiveMerge, HttpServerKind::Nginx);
        let served = HttpServerKind::Nginx.deploy(&files).unwrap();
        // leaf, root, intermediate — reversed tail straight from the bundle.
        assert_eq!(served.len(), 3);
        assert_eq!(served[0], bundle.leaf);
        assert!(
            served[1].is_self_issued(),
            "root ended up before intermediate"
        );
        assert_eq!(served[2], bundle.intermediate);
    }

    #[test]
    fn naive_merge_of_compliant_bundle_is_compliant() {
        let bundle = issue("ZeroSSL", "zc.sim");
        let files = assemble(&bundle, &AdminBehavior::NaiveMerge, HttpServerKind::Nginx);
        let served = HttpServerKind::Nginx.deploy(&files).unwrap();
        assert_eq!(
            served,
            vec![bundle.leaf.clone(), bundle.intermediate.clone()]
        );
    }

    #[test]
    fn leaf_in_chain_file_duplicates_leaf_on_old_apache() {
        let bundle = issue("ZeroSSL", "dup.sim");
        let files = assemble(
            &bundle,
            &AdminBehavior::LeafInChainFile,
            HttpServerKind::ApacheOld,
        );
        let served = HttpServerKind::ApacheOld.deploy(&files).unwrap();
        assert_eq!(served.iter().filter(|c| **c == bundle.leaf).count(), 2);
        // Azure rejects the same files.
        assert!(HttpServerKind::AzureAppGateway.deploy(&files).is_err());
    }

    #[test]
    fn drop_bundle_serves_lone_leaf() {
        let bundle = issue("Digicert", "in.sim");
        let files = assemble(&bundle, &AdminBehavior::DropBundle, HttpServerKind::Nginx);
        let served = HttpServerKind::Nginx.deploy(&files).unwrap();
        assert_eq!(served, vec![bundle.leaf.clone()]);
    }

    #[test]
    fn duplicate_bundle_multiplies_intermediates() {
        let bundle = issue("GoGetSSL", "ns3.sim");
        let files = assemble(
            &bundle,
            &AdminBehavior::DuplicateBundle(13),
            HttpServerKind::Nginx,
        );
        let served = HttpServerKind::Nginx.deploy(&files).unwrap();
        // 1 leaf + 14 copies of the 2-cert bundle = 29 certificates — the
        // ns3.link pattern.
        assert_eq!(served.len(), 29);
    }

    #[test]
    fn reverse_everything_puts_leaf_last() {
        let bundle = issue("ZeroSSL", "rev.sim");
        let files = assemble(
            &bundle,
            &AdminBehavior::ReverseEverything,
            HttpServerKind::Nginx,
        );
        // Leaf is not first → the key check fails on upload.
        assert!(!files.key_matches_first_cert);
        assert_eq!(
            HttpServerKind::Nginx.deploy(&files).unwrap_err(),
            crate::httpserver::DeployError::KeyMismatch
        );
    }

    #[test]
    fn stale_leaves_lead_with_newest() {
        let old = issue("ZeroSSL", "stale.sim").leaf;
        let bundle = issue("ZeroSSL", "stale.sim2");
        let files = assemble(
            &bundle,
            &AdminBehavior::StaleLeaves(vec![old.clone()]),
            HttpServerKind::Nginx,
        );
        let served = HttpServerKind::Nginx.deploy(&files).unwrap();
        assert_eq!(served[0], bundle.leaf);
        assert_eq!(served[1], old);
    }

    #[test]
    fn foreign_chain_appended_after_own() {
        let foreign = issue("Digicert", "foreign.sim");
        let bundle = issue("ZeroSSL", "own.sim");
        let files = assemble(
            &bundle,
            &AdminBehavior::AppendForeignChain(foreign.compliant_chain()),
            HttpServerKind::Nginx,
        );
        let served = HttpServerKind::Nginx.deploy(&files).unwrap();
        assert_eq!(served[0], bundle.leaf);
        assert!(served.contains(&foreign.leaf));
    }
}
