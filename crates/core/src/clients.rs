//! The eight TLS client profiles (paper §3.2 / Table 9).
//!
//! Each profile instantiates the [`crate::builder::ChainEngine`] with the
//! capability knobs the paper measured for that client. Path-length
//! figures are the paper's measured limits; ">52" entries (OpenSSL,
//! Chrome, Safari) are modeled as unlimited.

use crate::builder::{
    BuilderPolicy, ChainEngine, KidPriority, RetryPolicy, SearchScope, ValidityPriority,
};

/// The clients the paper evaluates: four TLS libraries, four browsers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum ClientKind {
    /// OpenSSL 3.0.x.
    OpenSsl,
    /// GnuTLS 3.7.x.
    GnuTls,
    /// MbedTLS 3.5.x.
    MbedTls,
    /// Windows CryptoAPI (schannel).
    CryptoApi,
    /// Chrome (Chromium network stack).
    Chrome,
    /// Microsoft Edge (Chromium engine, its own limit settings).
    Edge,
    /// Safari (Security.framework).
    Safari,
    /// Firefox (NSS + intermediate preloading/caching).
    Firefox,
}

impl ClientKind {
    /// All clients in the paper's Table 9 column order.
    pub const ALL: [ClientKind; 8] = [
        ClientKind::OpenSsl,
        ClientKind::GnuTls,
        ClientKind::MbedTls,
        ClientKind::CryptoApi,
        ClientKind::Chrome,
        ClientKind::Edge,
        ClientKind::Safari,
        ClientKind::Firefox,
    ];

    /// The four libraries.
    pub const LIBRARIES: [ClientKind; 4] = [
        ClientKind::OpenSsl,
        ClientKind::GnuTls,
        ClientKind::MbedTls,
        ClientKind::CryptoApi,
    ];

    /// The four browsers.
    pub const BROWSERS: [ClientKind; 4] = [
        ClientKind::Chrome,
        ClientKind::Edge,
        ClientKind::Safari,
        ClientKind::Firefox,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ClientKind::OpenSsl => "OpenSSL",
            ClientKind::GnuTls => "GnuTLS",
            ClientKind::MbedTls => "MbedTLS",
            ClientKind::CryptoApi => "CryptoAPI",
            ClientKind::Chrome => "Chrome",
            ClientKind::Edge => "Microsoft Edge",
            ClientKind::Safari => "Safari",
            ClientKind::Firefox => "Firefox",
        }
    }

    /// Whether this client is a browser (vs a library).
    pub fn is_browser(&self) -> bool {
        matches!(
            self,
            ClientKind::Chrome | ClientKind::Edge | ClientKind::Safari | ClientKind::Firefox
        )
    }

    /// The Table 9 policy for this client.
    pub fn policy(&self) -> BuilderPolicy {
        let base = BuilderPolicy {
            name: self.name().to_string(),
            scope: SearchScope::FullList,
            aia: false,
            use_intermediate_cache: false,
            validity_priority: ValidityPriority::NoPreference,
            kid_priority: KidPriority::NoPreference,
            key_usage_priority: false,
            basic_constraints_priority: false,
            trusted_first: false,
            max_path_len: None,
            max_list_len: None,
            allow_self_signed_leaf: false,
            backtracking: false,
            partial_validation: false,
            max_candidate_expansions: 4096,
            retry: RetryPolicy::none(),
        };
        match self {
            ClientKind::OpenSsl => BuilderPolicy {
                validity_priority: ValidityPriority::FirstValid,
                kid_priority: KidPriority::MatchOrAbsentFirst,
                // Prefers trusted candidates when building (X509_STORE
                // lookup precedes untrusted list search).
                trusted_first: true,
                ..base
            },
            ClientKind::GnuTls => BuilderPolicy {
                kid_priority: KidPriority::MatchOrAbsentFirst,
                max_list_len: Some(16),
                ..base
            },
            ClientKind::MbedTls => BuilderPolicy {
                scope: SearchScope::ForwardOnly,
                validity_priority: ValidityPriority::FirstValid,
                key_usage_priority: true,
                basic_constraints_priority: true,
                max_path_len: Some(10),
                allow_self_signed_leaf: true,
                partial_validation: true,
                ..base
            },
            ClientKind::CryptoApi => BuilderPolicy {
                aia: true,
                validity_priority: ValidityPriority::MostRecent,
                kid_priority: KidPriority::MatchFirst,
                key_usage_priority: true,
                basic_constraints_priority: true,
                trusted_first: true,
                max_path_len: Some(13),
                backtracking: true,
                // One AIA try per URI, no backoff — the schannel fetcher
                // defers retries to its offline URL cache, which a single
                // handshake never revisits.
                retry: RetryPolicy::none(),
                ..base
            },
            ClientKind::Chrome => BuilderPolicy {
                aia: true,
                validity_priority: ValidityPriority::MostRecent,
                kid_priority: KidPriority::MatchFirst,
                key_usage_priority: true,
                basic_constraints_priority: true,
                trusted_first: true,
                backtracking: true,
                retry: RetryPolicy::retrying(3, 200, 30_000),
                ..base
            },
            ClientKind::Edge => BuilderPolicy {
                aia: true,
                validity_priority: ValidityPriority::MostRecent,
                kid_priority: KidPriority::MatchFirst,
                key_usage_priority: true,
                basic_constraints_priority: true,
                trusted_first: true,
                max_path_len: Some(21),
                backtracking: true,
                retry: RetryPolicy::retrying(3, 200, 30_000),
                ..base
            },
            ClientKind::Safari => BuilderPolicy {
                aia: true,
                validity_priority: ValidityPriority::MostRecent,
                kid_priority: KidPriority::MatchOrAbsentFirst,
                key_usage_priority: true,
                basic_constraints_priority: true,
                trusted_first: true,
                allow_self_signed_leaf: true,
                backtracking: true,
                retry: RetryPolicy::retrying(2, 500, 15_000),
                ..base
            },
            ClientKind::Firefox => BuilderPolicy {
                use_intermediate_cache: true,
                validity_priority: ValidityPriority::FirstValid,
                key_usage_priority: true,
                basic_constraints_priority: true,
                trusted_first: true,
                max_path_len: Some(8),
                backtracking: true,
                ..base
            },
        }
    }

    /// An engine ready to process served lists.
    pub fn engine(&self) -> ChainEngine {
        ChainEngine::new(self.policy())
    }
}

/// All eight engines in Table 9 order.
pub fn client_profiles() -> Vec<(ClientKind, ChainEngine)> {
    ClientKind::ALL.iter().map(|&k| (k, k.engine())).collect()
}

/// The Table 1 comparison data: which capability dimensions BetterTLS
/// (2020) covers versus this work.
pub fn capability_coverage() -> Vec<(&'static str, &'static str, bool, bool)> {
    // (group, capability, bettertls, this_work)
    vec![
        ("Basic Capabilities", "ORDER_REORGANIZATION", false, true),
        ("Basic Capabilities", "REDUNDANCY_ELIMINATION", false, true),
        ("Basic Capabilities", "AIA_COMPLETION", false, true),
        ("Priority Preferences", "EXPIRED", true, true),
        ("Priority Preferences", "NAME_CONSTRAINTS", true, false),
        ("Priority Preferences", "BAD_EKU", true, false),
        (
            "Priority Preferences",
            "MISS_BASIC_CONSTRAINTS",
            true,
            false,
        ),
        ("Priority Preferences", "NOT_A_CA", true, false),
        ("Priority Preferences", "DEPRECATED_CRYPTO", true, false),
        ("Priority Preferences", "BAD_PATH_LENGTH", false, true),
        ("Priority Preferences", "BAD_KID", false, true),
        ("Priority Preferences", "BAD_KU", false, true),
        (
            "Restriction Settings",
            "PATH_LENGTH_CONSTRAINT",
            false,
            true,
        ),
        ("Restriction Settings", "SELF_SIGNED_LEAF_CERT", false, true),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_match_table9_headlines() {
        // AIA: CryptoAPI + the three non-Firefox browsers only.
        let aia: Vec<bool> = ClientKind::ALL.iter().map(|k| k.policy().aia).collect();
        assert_eq!(
            aia,
            vec![false, false, false, true, true, true, true, false]
        );

        // Reorder: everyone except MbedTLS.
        let reorder: Vec<bool> = ClientKind::ALL
            .iter()
            .map(|k| k.policy().scope == SearchScope::FullList)
            .collect();
        assert_eq!(
            reorder,
            vec![true, true, false, true, true, true, true, true]
        );

        // Self-signed leaf: MbedTLS and Safari only.
        let ssl: Vec<bool> = ClientKind::ALL
            .iter()
            .map(|k| k.policy().allow_self_signed_leaf)
            .collect();
        assert_eq!(
            ssl,
            vec![false, false, true, false, false, false, true, false]
        );

        // Path limits.
        assert_eq!(ClientKind::OpenSsl.policy().max_path_len, None);
        assert_eq!(ClientKind::GnuTls.policy().max_list_len, Some(16));
        assert_eq!(ClientKind::MbedTls.policy().max_path_len, Some(10));
        assert_eq!(ClientKind::CryptoApi.policy().max_path_len, Some(13));
        assert_eq!(ClientKind::Edge.policy().max_path_len, Some(21));
        assert_eq!(ClientKind::Firefox.policy().max_path_len, Some(8));

        // Backtracking: CryptoAPI and the browsers.
        let bt: Vec<bool> = ClientKind::ALL
            .iter()
            .map(|k| k.policy().backtracking)
            .collect();
        assert_eq!(bt, vec![false, false, false, true, true, true, true, true]);

        // AIA retries: Chrome/Edge/Safari only; no-AIA profiles and
        // CryptoAPI are single-shot.
        let retries: Vec<bool> = ClientKind::ALL
            .iter()
            .map(|k| k.policy().retry.retries())
            .collect();
        assert_eq!(
            retries,
            vec![false, false, false, false, true, true, true, false]
        );
        assert_eq!(
            ClientKind::Chrome.policy().retry,
            RetryPolicy::retrying(3, 200, 30_000)
        );
        assert_eq!(
            ClientKind::Edge.policy().retry,
            RetryPolicy::retrying(3, 200, 30_000)
        );
        assert_eq!(
            ClientKind::Safari.policy().retry,
            RetryPolicy::retrying(2, 500, 15_000)
        );
        assert_eq!(ClientKind::CryptoApi.policy().retry, RetryPolicy::none());
    }

    #[test]
    fn library_browser_partition() {
        for k in ClientKind::LIBRARIES {
            assert!(!k.is_browser());
        }
        for k in ClientKind::BROWSERS {
            assert!(k.is_browser());
        }
        assert_eq!(ClientKind::ALL.len(), 8);
    }

    #[test]
    fn firefox_uses_cache_not_aia() {
        let p = ClientKind::Firefox.policy();
        assert!(!p.aia);
        assert!(p.use_intermediate_cache);
    }

    #[test]
    fn coverage_table_shape() {
        let rows = capability_coverage();
        assert_eq!(rows.len(), 14);
        let this_work: usize = rows.iter().filter(|r| r.3).count();
        let bettertls: usize = rows.iter().filter(|r| r.2).count();
        assert_eq!(this_work, 9, "paper tests 9 capabilities");
        assert_eq!(bettertls, 6);
    }
}
