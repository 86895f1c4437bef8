//! HTTP server certificate deployment models (the paper's Table 4).
//!
//! Each server kind models: the certificate file layout it expects (SF1 =
//! separate leaf + chain files, SF2 = single fullchain file, SF3 = PFX
//! container), whether it verifies the private key against the first
//! certificate, and whether it rejects duplicate leaf certificates at
//! upload time (Azure Application Gateway / IIS do; Apache, Nginx and AWS
//! ELB do not).

use ccc_x509::Certificate;
use std::fmt;

/// Certificate file layout a server expects (Table 4's SF1/SF2/SF3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FileLayout {
    /// SF1: CertificateFile.pem (leaf only) + Ca-bundle.pem + key.
    SeparateLeafAndBundle,
    /// SF2: FullChain.pem + key.
    FullChain,
    /// SF3: PFX container with the whole chain.
    Pfx,
}

/// HTTP server kinds evaluated by the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum HttpServerKind {
    /// Apache < 2.4.8: SSLCertificateFile + SSLCertificateChainFile.
    ApacheOld,
    /// Apache >= 2.4.8: full chain in SSLCertificateFile.
    ApacheNew,
    /// Nginx: fullchain in ssl_certificate.
    Nginx,
    /// Microsoft-Azure-Application-Gateway: PFX upload with checks.
    AzureAppGateway,
    /// IIS: PFX via certificate store.
    Iis,
    /// AWS Elastic Load Balancer: separate cert + chain fields.
    AwsElb,
    /// Cloudflare edge (fully automated unless custom certs uploaded).
    Cloudflare,
    /// Anything else (fingerprinting bucket "Other").
    Other,
}

impl HttpServerKind {
    /// All kinds, in the paper's Table 10 column order.
    pub const ALL: [HttpServerKind; 8] = [
        HttpServerKind::ApacheOld,
        HttpServerKind::ApacheNew,
        HttpServerKind::Nginx,
        HttpServerKind::AzureAppGateway,
        HttpServerKind::Cloudflare,
        HttpServerKind::Iis,
        HttpServerKind::AwsElb,
        HttpServerKind::Other,
    ];

    /// Server header label (the Nmap fingerprint bucket).
    pub fn display_name(&self) -> &'static str {
        match self {
            HttpServerKind::ApacheOld | HttpServerKind::ApacheNew => "Apache",
            HttpServerKind::Nginx => "Nginx",
            HttpServerKind::AzureAppGateway => "Azure",
            HttpServerKind::Iis => "IIS",
            HttpServerKind::AwsElb => "AWS ELB",
            HttpServerKind::Cloudflare => "cloudflare",
            HttpServerKind::Other => "Other",
        }
    }

    /// Whether the platform offers automated certificate management.
    pub fn supports_automation(&self) -> bool {
        !matches!(self, HttpServerKind::Iis | HttpServerKind::Other)
    }

    /// Expected file layout.
    pub fn file_layout(&self) -> FileLayout {
        match self {
            HttpServerKind::ApacheOld | HttpServerKind::AwsElb => FileLayout::SeparateLeafAndBundle,
            HttpServerKind::ApacheNew
            | HttpServerKind::Nginx
            | HttpServerKind::Cloudflare
            | HttpServerKind::Other => FileLayout::FullChain,
            HttpServerKind::AzureAppGateway | HttpServerKind::Iis => FileLayout::Pfx,
        }
    }

    /// Whether upload-time validation rejects duplicate leaf certificates.
    pub fn checks_duplicate_leaf(&self) -> bool {
        matches!(self, HttpServerKind::AzureAppGateway | HttpServerKind::Iis)
    }

    /// Whether upload-time validation rejects duplicate intermediates or
    /// roots (no surveyed server does — Table 4's last row).
    pub fn checks_duplicate_intermediate(&self) -> bool {
        false
    }

    /// Attempt to deploy `files`. Returns the certificate list the server
    /// will serve in the TLS handshake, or the configuration error shown
    /// to the administrator.
    pub fn deploy(&self, files: &DeploymentFiles) -> Result<Vec<Certificate>, DeployError> {
        let served = match self.file_layout() {
            FileLayout::SeparateLeafAndBundle => {
                let mut v = files.cert_file.clone();
                if let Some(chain) = &files.chain_file {
                    v.extend(chain.iter().cloned());
                }
                v
            }
            FileLayout::FullChain | FileLayout::Pfx => {
                // Single container: cert_file carries everything; a
                // separately supplied chain_file is appended by admins who
                // misunderstand the layout.
                let mut v = files.cert_file.clone();
                if let Some(chain) = &files.chain_file {
                    v.extend(chain.iter().cloned());
                }
                v
            }
        };
        let leaf = served.first().ok_or(DeployError::NoCertificate)?;
        // Every surveyed server verifies the private key against the first
        // certificate ("SSL_CTX_use_PrivateKey failed").
        if !files.key_matches_first_cert {
            return Err(DeployError::KeyMismatch);
        }
        if self.checks_duplicate_leaf() {
            let dup = served.iter().skip(1).any(|c| c == leaf);
            if dup {
                return Err(DeployError::DuplicateLeaf);
            }
        }
        Ok(served)
    }
}

impl fmt::Display for HttpServerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpServerKind::ApacheOld => write!(f, "Apache(<2.4.8)"),
            HttpServerKind::ApacheNew => write!(f, "Apache(>=2.4.8)"),
            other => write!(f, "{}", other.display_name()),
        }
    }
}

/// The files an administrator hands to the server.
#[derive(Clone, Debug)]
pub struct DeploymentFiles {
    /// The primary certificate file (leaf only under SF1; the whole chain
    /// under SF2/SF3).
    pub cert_file: Vec<Certificate>,
    /// The chain/bundle file (SF1's Ca-bundle.pem), when supplied.
    pub chain_file: Option<Vec<Certificate>>,
    /// Whether the private key corresponds to the first served certificate
    /// (modeled as a boolean: the simulation tracks key possession, not
    /// key bytes).
    pub key_matches_first_cert: bool,
}

/// Upload-time configuration errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeployError {
    /// No certificate supplied.
    NoCertificate,
    /// Private key does not match the first certificate
    /// ("SSL_CTX_use_PrivateKey failed").
    KeyMismatch,
    /// Duplicate leaf rejected at upload (Azure/IIS behaviour).
    DuplicateLeaf,
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::NoCertificate => write!(f, "no certificate supplied"),
            DeployError::KeyMismatch => write!(f, "SSL_CTX_use_PrivateKey failed: key mismatch"),
            DeployError::DuplicateLeaf => {
                write!(f, "upload rejected: duplicate leaf certificate")
            }
        }
    }
}

impl std::error::Error for DeployError {}

/// The outcome of a deployment attempt, bundling the server kind with the
/// result (used by the Table 4 regeneration binary).
#[derive(Clone, Debug)]
pub struct DeploymentOutcome {
    /// Server that processed the upload.
    pub server: HttpServerKind,
    /// Served chain or rejection.
    pub result: Result<Vec<Certificate>, DeployError>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccc_crypto::{Group, KeyPair};
    use ccc_x509::{CertificateBuilder, DistinguishedName};

    fn chain() -> (Certificate, Certificate) {
        let g = Group::simulation_256();
        let ca_kp = KeyPair::from_seed(g, b"hs-ca");
        let leaf_kp = KeyPair::from_seed(g, b"hs-leaf");
        let ca_dn = DistinguishedName::cn("HS CA");
        let ca = CertificateBuilder::ca_profile(ca_dn.clone()).self_signed(&ca_kp);
        let leaf =
            CertificateBuilder::leaf_profile("hs.sim").issued_by(&leaf_kp.public, ca_dn, &ca_kp);
        (leaf, ca)
    }

    #[test]
    fn separate_files_concatenate() {
        let (leaf, ca) = chain();
        let files = DeploymentFiles {
            cert_file: vec![leaf.clone()],
            chain_file: Some(vec![ca.clone()]),
            key_matches_first_cert: true,
        };
        let served = HttpServerKind::ApacheOld.deploy(&files).unwrap();
        assert_eq!(served, vec![leaf, ca]);
    }

    #[test]
    fn key_mismatch_rejected_everywhere() {
        let (leaf, ca) = chain();
        let files = DeploymentFiles {
            cert_file: vec![leaf],
            chain_file: Some(vec![ca]),
            key_matches_first_cert: false,
        };
        for kind in HttpServerKind::ALL {
            assert_eq!(
                kind.deploy(&files).unwrap_err(),
                DeployError::KeyMismatch,
                "{kind}"
            );
        }
    }

    #[test]
    fn azure_and_iis_reject_duplicate_leaf() {
        let (leaf, ca) = chain();
        let files = DeploymentFiles {
            cert_file: vec![leaf.clone()],
            chain_file: Some(vec![leaf.clone(), ca.clone()]),
            key_matches_first_cert: true,
        };
        assert_eq!(
            HttpServerKind::AzureAppGateway.deploy(&files).unwrap_err(),
            DeployError::DuplicateLeaf
        );
        assert_eq!(
            HttpServerKind::Iis.deploy(&files).unwrap_err(),
            DeployError::DuplicateLeaf
        );
        // Apache/Nginx/ELB accept the duplicate.
        assert!(HttpServerKind::ApacheOld.deploy(&files).is_ok());
        assert!(HttpServerKind::Nginx.deploy(&files).is_ok());
        assert!(HttpServerKind::AwsElb.deploy(&files).is_ok());
    }

    #[test]
    fn duplicate_intermediates_never_checked() {
        let (leaf, ca) = chain();
        let files = DeploymentFiles {
            cert_file: vec![leaf],
            chain_file: Some(vec![ca.clone(), ca.clone(), ca.clone()]),
            key_matches_first_cert: true,
        };
        for kind in HttpServerKind::ALL {
            assert!(!kind.checks_duplicate_intermediate());
            let served = kind.deploy(&files).unwrap();
            assert_eq!(served.len(), 4, "{kind}");
        }
    }

    #[test]
    fn empty_deployment_rejected() {
        let files = DeploymentFiles {
            cert_file: vec![],
            chain_file: None,
            key_matches_first_cert: true,
        };
        assert_eq!(
            HttpServerKind::Nginx.deploy(&files).unwrap_err(),
            DeployError::NoCertificate
        );
    }

    #[test]
    fn layouts_match_table4() {
        assert_eq!(
            HttpServerKind::ApacheOld.file_layout(),
            FileLayout::SeparateLeafAndBundle
        );
        assert_eq!(
            HttpServerKind::ApacheNew.file_layout(),
            FileLayout::FullChain
        );
        assert_eq!(HttpServerKind::Nginx.file_layout(), FileLayout::FullChain);
        assert_eq!(
            HttpServerKind::AzureAppGateway.file_layout(),
            FileLayout::Pfx
        );
        assert_eq!(HttpServerKind::Iis.file_layout(), FileLayout::Pfx);
        assert_eq!(
            HttpServerKind::AwsElb.file_layout(),
            FileLayout::SeparateLeafAndBundle
        );
        assert!(!HttpServerKind::Iis.supports_automation());
        assert!(HttpServerKind::Nginx.supports_automation());
    }
}
