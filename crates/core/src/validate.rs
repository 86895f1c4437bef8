//! Certificate path validation (the step after construction, paper Fig. 1).

use crate::builder::ClientError;
use crate::topology::IssuanceChecker;
use ccc_asn1::Time;
use ccc_rootstore::RootStore;
use ccc_x509::Certificate;

/// Validate a constructed path (leaf first, trust anchor last).
///
/// Checks, in the order a typical implementation reports them:
/// 1. every certificate is within its validity window;
/// 2. every issuer (index ≥ 1) is a CA with certificate-signing KeyUsage
///    and a satisfied pathLenConstraint;
/// 3. every signature verifies under its issuer's key;
/// 4. the terminal certificate is in the trust store.
pub fn validate_path(
    path: &[Certificate],
    store: &RootStore,
    now: Time,
    checker: &IssuanceChecker,
) -> Result<(), ClientError> {
    if path.is_empty() {
        return Err(ClientError::EmptyList);
    }
    for cert in path {
        let v = cert.validity();
        if now < v.not_before {
            return Err(ClientError::NotYetValid);
        }
        if now > v.not_after {
            return Err(ClientError::Expired);
        }
    }
    for (i, issuer) in path.iter().enumerate().skip(1) {
        // Intermediates strictly between this issuer and the leaf.
        ca_fits(issuer, i - 1)?;
        if !signs_certificates(issuer) {
            return Err(ClientError::BadKeyUsage);
        }
    }
    for w in path.windows(2) {
        if !checker.signature_verifies(&w[1], &w[0]) {
            return Err(ClientError::BadSignature);
        }
    }
    let terminal = path.last().expect("non-empty");
    if terminal.is_self_issued() && !checker.signature_verifies(terminal, terminal) {
        return Err(ClientError::BadSignature);
    }
    if !store.contains(terminal) {
        return Err(ClientError::UntrustedRoot);
    }
    Ok(())
}

/// Whether `cert` may issue a certificate with `below` intermediates
/// between it and the leaf: a CA whose pathLenConstraint, if any, admits
/// them. Self-issued intermediates count too, as every client modeled
/// here counts them.
pub(crate) fn ca_fits(cert: &Certificate, below: usize) -> Result<(), ClientError> {
    match cert.basic_constraints() {
        Some(bc) if bc.ca => match bc.path_len {
            Some(max) if below > max as usize => Err(ClientError::PathLenConstraintViolated),
            _ => Ok(()),
        },
        _ => Err(ClientError::NotACa),
    }
}

/// Whether `cert`'s KeyUsage, when present, permits certificate signing.
pub(crate) fn signs_certificates(cert: &Certificate) -> bool {
    cert.key_usage().map_or(true, |ku| ku.key_cert_sign)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccc_crypto::{Group, KeyPair};
    use ccc_x509::{BasicConstraints, CertificateBuilder, DistinguishedName, KeyUsage};

    struct Pki {
        root: Certificate,
        int: Certificate,
        leaf: Certificate,
        store: RootStore,
    }

    fn pki() -> Pki {
        let g = Group::simulation_256();
        let root_kp = KeyPair::from_seed(g, b"val-root");
        let int_kp = KeyPair::from_seed(g, b"val-int");
        let leaf_kp = KeyPair::from_seed(g, b"val-leaf");
        let root_dn = DistinguishedName::cn("Val Root");
        let int_dn = DistinguishedName::cn("Val Int");
        let root = CertificateBuilder::ca_profile(root_dn.clone()).self_signed(&root_kp);
        let int = CertificateBuilder::ca_profile(int_dn.clone()).issued_by(
            &int_kp.public,
            root_dn,
            &root_kp,
        );
        let leaf =
            CertificateBuilder::leaf_profile("val.sim").issued_by(&leaf_kp.public, int_dn, &int_kp);
        let store = RootStore::new("test", vec![root.clone()]);
        Pki {
            root,
            int,
            leaf,
            store,
        }
    }

    fn now() -> Time {
        Time::from_ymd(2024, 7, 1).unwrap()
    }

    #[test]
    fn valid_path_passes() {
        let p = pki();
        let checker = IssuanceChecker::new();
        let path = vec![p.leaf, p.int, p.root];
        assert_eq!(validate_path(&path, &p.store, now(), &checker), Ok(()));
    }

    #[test]
    fn expired_detected() {
        let p = pki();
        let checker = IssuanceChecker::new();
        let path = vec![p.leaf, p.int, p.root];
        let late = Time::from_ymd(2030, 1, 1).unwrap();
        assert_eq!(
            validate_path(&path, &p.store, late, &checker),
            Err(ClientError::Expired)
        );
        let early = Time::from_ymd(2020, 1, 1).unwrap();
        assert_eq!(
            validate_path(&path, &p.store, early, &checker),
            Err(ClientError::NotYetValid)
        );
    }

    #[test]
    fn untrusted_root_detected() {
        let p = pki();
        let checker = IssuanceChecker::new();
        let empty_store = RootStore::new("empty", vec![]);
        let path = vec![p.leaf, p.int, p.root];
        assert_eq!(
            validate_path(&path, &empty_store, now(), &checker),
            Err(ClientError::UntrustedRoot)
        );
    }

    #[test]
    fn non_ca_issuer_detected() {
        let g = Group::simulation_256();
        let fake_ca_kp = KeyPair::from_seed(g, b"val-fake");
        let leaf_kp = KeyPair::from_seed(g, b"val-leaf2");
        let fake_dn = DistinguishedName::cn("Not A CA");
        // "CA" without BasicConstraints CA bit.
        let fake_ca = CertificateBuilder::new(fake_dn.clone())
            .basic_constraints(Some(BasicConstraints::end_entity()))
            .key_usage(Some(KeyUsage::ca()))
            .self_signed(&fake_ca_kp);
        let leaf = CertificateBuilder::leaf_profile("fake.sim").issued_by(
            &leaf_kp.public,
            fake_dn,
            &fake_ca_kp,
        );
        let store = RootStore::new("s", vec![fake_ca.clone()]);
        let checker = IssuanceChecker::new();
        assert_eq!(
            validate_path(&[leaf, fake_ca], &store, now(), &checker),
            Err(ClientError::NotACa)
        );
    }

    #[test]
    fn bad_key_usage_detected() {
        let g = Group::simulation_256();
        let ca_kp = KeyPair::from_seed(g, b"val-badku");
        let leaf_kp = KeyPair::from_seed(g, b"val-leaf3");
        let dn = DistinguishedName::cn("Bad KU CA");
        let ca = CertificateBuilder::new(dn.clone())
            .basic_constraints(Some(BasicConstraints::ca()))
            .key_usage(Some(KeyUsage::no_cert_sign()))
            .self_signed(&ca_kp);
        let leaf =
            CertificateBuilder::leaf_profile("ku.sim").issued_by(&leaf_kp.public, dn, &ca_kp);
        let store = RootStore::new("s", vec![ca.clone()]);
        let checker = IssuanceChecker::new();
        assert_eq!(
            validate_path(&[leaf, ca], &store, now(), &checker),
            Err(ClientError::BadKeyUsage)
        );
    }

    #[test]
    fn path_len_constraint_enforced() {
        let g = Group::simulation_256();
        let root_kp = KeyPair::from_seed(g, b"val-plc-root");
        let i1_kp = KeyPair::from_seed(g, b"val-plc-i1");
        let i2_kp = KeyPair::from_seed(g, b"val-plc-i2");
        let leaf_kp = KeyPair::from_seed(g, b"val-plc-leaf");
        let root_dn = DistinguishedName::cn("PLC Root");
        let i1_dn = DistinguishedName::cn("PLC I1");
        let i2_dn = DistinguishedName::cn("PLC I2");
        // Root constrains path length to 0 intermediates below it — but
        // the chain has two.
        let root = CertificateBuilder::new(root_dn.clone())
            .basic_constraints(Some(BasicConstraints::ca_with_path_len(0)))
            .key_usage(Some(KeyUsage::ca()))
            .self_signed(&root_kp);
        let i2 = CertificateBuilder::ca_profile(i2_dn.clone()).issued_by(
            &i2_kp.public,
            root_dn,
            &root_kp,
        );
        let i1 =
            CertificateBuilder::ca_profile(i1_dn.clone()).issued_by(&i1_kp.public, i2_dn, &i2_kp);
        let leaf =
            CertificateBuilder::leaf_profile("plc.sim").issued_by(&leaf_kp.public, i1_dn, &i1_kp);
        let store = RootStore::new("s", vec![root.clone()]);
        let checker = IssuanceChecker::new();
        assert_eq!(
            validate_path(&[leaf, i1, i2, root], &store, now(), &checker),
            Err(ClientError::PathLenConstraintViolated)
        );
    }

    #[test]
    fn bad_signature_detected() {
        let p = pki();
        let g = Group::simulation_256();
        let imposter_kp = KeyPair::from_seed(g, b"val-imposter");
        let leaf_kp = KeyPair::from_seed(g, b"val-leaf4");
        // Leaf claims p.int as issuer but is signed by an imposter.
        let forged = CertificateBuilder::leaf_profile("forged.sim").build(
            &leaf_kp.public,
            p.int.subject().clone(),
            &imposter_kp.private,
            p.int.public_key(),
        );
        let checker = IssuanceChecker::new();
        assert_eq!(
            validate_path(&[forged, p.int, p.root], &p.store, now(), &checker),
            Err(ClientError::BadSignature)
        );
    }

    #[test]
    fn empty_path_rejected() {
        let p = pki();
        let checker = IssuanceChecker::new();
        assert_eq!(
            validate_path(&[], &p.store, now(), &checker),
            Err(ClientError::EmptyList)
        );
    }
}
