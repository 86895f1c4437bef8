//! Calibrated Tranco-like corpus generator.
//!
//! Substitutes for the paper's ZGrab2 scan of the Tranco Top 1M: a
//! deterministic population of (domain, served certificate list)
//! observations whose structural-defect mix matches the paper's measured
//! marginals. Defects are not stamped on directly — each observation is
//! produced by running a sampled CA issuance pipeline (Table 6), an
//! administrator behaviour, and an HTTP-server deployment model (Table 4),
//! so the Table 10/11 attributions are causal in the simulation.
//!
//! All sampling is per-rank forked from the master seed, so observations
//! can be generated independently and streamed (a 1M-domain corpus never
//! needs to be resident in memory).

use ccc_asn1::Time;
use ccc_crypto::{Drbg, Group, KeyPair};
use ccc_netsim::admin::{assemble, AdminBehavior};
use ccc_netsim::ca::CaProfile;
use ccc_netsim::httpserver::{DeployError, HttpServerKind};
use ccc_netsim::AiaRepository;
use ccc_rootstore::{CaUniverse, RootPrograms};
use ccc_x509::{Certificate, CertificateBuilder, DistinguishedName};
use std::collections::HashMap;

/// The simulated scan date (all validity sampling is relative to this).
pub fn scan_time() -> Time {
    Time::from_ymd(2024, 3, 15).expect("valid date")
}

/// Per-CA defect rates, calibrated to the paper's Table 11 (rates are
/// fractions of that CA's issuance volume).
#[derive(Clone, Copy, Debug)]
pub struct CaDefectRates {
    /// Duplicate certificates.
    pub duplicate: f64,
    /// Irrelevant certificates.
    pub irrelevant: f64,
    /// Multiple paths (cross-signing deployments).
    pub multipath: f64,
    /// Reversed sequences.
    pub reversed: f64,
    /// Incomplete chains.
    pub incomplete: f64,
}

/// (profile, rates) for the nine corpus CA buckets (Table 11's eight rows
/// plus the long tail that makes aggregates match Table 5).
pub fn ca_population() -> Vec<(CaProfile, CaDefectRates)> {
    let mut profiles = CaProfile::all();
    profiles.push(CaProfile::other_cas());
    let rates = [
        // Let's Encrypt: 400,737 issued.
        CaDefectRates {
            duplicate: 0.00813,
            irrelevant: 0.00100,
            multipath: 0.000127,
            reversed: 0.000202,
            incomplete: 0.00288,
        },
        // Digicert: 60,894.
        CaDefectRates {
            duplicate: 0.01266,
            irrelevant: 0.01192,
            multipath: 0.000099,
            reversed: 0.02851,
            incomplete: 0.03687,
        },
        // Sectigo: 48,042.
        CaDefectRates {
            duplicate: 0.01330,
            irrelevant: 0.01032,
            multipath: 0.00279,
            reversed: 0.05281,
            incomplete: 0.04159,
        },
        // ZeroSSL: 8,219.
        CaDefectRates {
            duplicate: 0.01046,
            irrelevant: 0.00426,
            multipath: 0.0,
            reversed: 0.000243,
            incomplete: 0.01460,
        },
        // GoGetSSL: 1,617 (reversal comes mechanically from its reversed
        // bundle + naive merges, not from a planned rate).
        CaDefectRates {
            duplicate: 0.02535,
            irrelevant: 0.02103,
            multipath: 0.0,
            reversed: 0.0,
            incomplete: 0.06926,
        },
        // TAIWAN-CA: 492.
        CaDefectRates {
            duplicate: 0.01423,
            irrelevant: 0.01626,
            multipath: 0.0,
            reversed: 0.09553,
            incomplete: 0.41870,
        },
        // cyber_Folks: 142 (mechanism-driven reversal, see GoGetSSL).
        CaDefectRates {
            duplicate: 0.02113,
            irrelevant: 0.05634,
            multipath: 0.0,
            reversed: 0.0,
            incomplete: 0.05634,
        },
        // Trustico: 108 (mechanism-driven reversal, see GoGetSSL).
        CaDefectRates {
            duplicate: 0.00926,
            irrelevant: 0.00926,
            multipath: 0.0,
            reversed: 0.0,
            incomplete: 0.03704,
        },
        // Other CAs: 386,085 — rates chosen so Table 5 totals match.
        CaDefectRates {
            duplicate: 0.00302,
            irrelevant: 0.00343,
            multipath: 0.000124,
            reversed: 0.01006,
            incomplete: 0.01616,
        },
    ];
    profiles.into_iter().zip(rates).collect()
}

/// The planned (ground-truth) defect of an observation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum PlannedDefect {
    /// Compliant deployment.
    None,
    /// Duplicate leaf certificate (leaf pasted into the chain file).
    DuplicateLeaf,
    /// Duplicated bundle (duplicate intermediates/roots; large `true`
    /// variants model the ns3.link copy-paste multiplication).
    DuplicateBundle {
        /// Whether this is a pathological many-copy deployment.
        huge: bool,
    },
    /// Stale leaves from previous renewals left in the file.
    StaleLeaves,
    /// A second, unrelated hierarchy served alongside (archives.gov.tw).
    ForeignChain,
    /// An unrelated self-signed root appended.
    UnrelatedRoot,
    /// Cross-signed deployment with more than one candidate path.
    MultiPath,
    /// Reversed issuance order (reseller bundle merged as delivered).
    Reversed,
    /// Missing intermediates (bundle never deployed).
    Incomplete,
    /// Chain served for a different hostname (leaf mismatched).
    WrongHost,
    /// Appliance/test self-signed certificate (Plesk/localhost style).
    TestCertificate,
    /// Leaf already expired at scan time.
    ExpiredLeaf,
}

/// One (domain, served list) observation.
#[derive(Clone, Debug)]
pub struct DomainObservation {
    /// Tranco-like rank (0-based).
    pub rank: usize,
    /// Queried domain.
    pub domain: String,
    /// Issuing CA bucket name.
    pub ca: &'static str,
    /// HTTP server fingerprint bucket.
    pub server: HttpServerKind,
    /// What the TLS handshake returns.
    pub served: Vec<Certificate>,
    /// Ground truth for calibration checks.
    pub planned: PlannedDefect,
    /// Whether the deployed terminal intermediate lacks AKID.
    pub terminal_akid_absent: bool,
}

/// Corpus generation parameters.
#[derive(Clone, Debug)]
pub struct CorpusSpec {
    /// Master seed.
    pub seed: u64,
    /// Number of domains.
    pub domains: usize,
    /// Leaf keypair pool size (keys are reused for speed; uniqueness
    /// comes from DN/serial).
    pub leaf_key_pool: usize,
    /// Fraction of deployments using the no-AKID intermediate variant
    /// (drives the paper's Table 8 no-AIA incompleteness, ~24.9%).
    pub terminal_akid_absent_rate: f64,
    /// Probability a domain is served under the Mozilla/Chrome-excluded
    /// regional root (paper: 66 / 906,336).
    pub regional_mz_rate: f64,
    /// Same for the Microsoft-excluded root (5 / 906,336).
    pub regional_ms_rate: f64,
    /// Same for the Apple-excluded root (4 / 906,336).
    pub regional_ap_rate: f64,
    /// Leaf served for the wrong hostname (Table 3: 6.9%).
    pub wrong_host_rate: f64,
    /// Appliance/test certificates (Table 3 "Other": 0.6%).
    pub test_cert_rate: f64,
    /// Expired-at-scan leaf rate (drives date_invalid differentials).
    pub expired_leaf_rate: f64,
    /// Fraction of otherwise-compliant deployments that append the root
    /// certificate (Table 7: 8.7% of chains include the root).
    pub root_included_rate: f64,
}

impl CorpusSpec {
    /// Paper-calibrated defaults at a given scale.
    pub fn calibrated(seed: u64, domains: usize) -> CorpusSpec {
        CorpusSpec {
            seed,
            domains,
            leaf_key_pool: 64,
            terminal_akid_absent_rate: 0.249,
            regional_mz_rate: 66.0 / 906_336.0,
            regional_ms_rate: 5.0 / 906_336.0,
            regional_ap_rate: 4.0 / 906_336.0,
            wrong_host_rate: 0.069,
            test_cert_rate: 0.006,
            expired_leaf_rate: 0.005,
            root_included_rate: 0.066,
        }
    }
}

/// The generated corpus: environment + per-rank observation factory.
#[derive(Debug)]
pub struct Corpus {
    /// The CA universe all chains are issued from.
    pub universe: CaUniverse,
    /// The four root programs + union.
    pub programs: RootPrograms,
    /// The AIA repository with all universe publications.
    pub aia: AiaRepository,
    /// The generation parameters.
    pub spec: CorpusSpec,
    population: Vec<(CaProfile, CaDefectRates)>,
    ca_weights: Vec<f64>,
    leaf_keys: Vec<KeyPair>,
    /// One sub-CA per universe root (issued by intermediate 0), used for
    /// the deep reversed chains (paper's 1->2->0 structure, I-1) and the
    /// two-intermediates-missing incompletes. Fields: (DN, keypair,
    /// certificate, AIA publication URI).
    sub_cas: Vec<(ccc_x509::DistinguishedName, KeyPair, Certificate, String)>,
    /// Memoized CA key material: issuing-intermediate key pairs keyed by
    /// subject DN. Built once at construction so the per-rank hot paths
    /// (`intermediate_keypair` in stale-leaf / incomplete generation)
    /// never re-scan the universe or re-derive keys from seed.
    int_keys_by_subject: HashMap<DistinguishedName, KeyPair>,
    /// Root index keyed by root subject DN: replaces the per-rank
    /// whole-certificate equality scans over `universe.roots`.
    root_index_by_subject: HashMap<DistinguishedName, usize>,
    master: Drbg,
}

/// Overall HTTP-server market shares used for sampling (approximate
/// Tranco-wide shares; Table 10's distribution then emerges from the
/// defect coupling below).
const SERVER_SHARES: [(HttpServerKind, f64); 8] = [
    (HttpServerKind::ApacheOld, 0.08),
    (HttpServerKind::ApacheNew, 0.20),
    (HttpServerKind::Nginx, 0.32),
    (HttpServerKind::AzureAppGateway, 0.02),
    (HttpServerKind::Cloudflare, 0.15),
    (HttpServerKind::Iis, 0.04),
    (HttpServerKind::AwsElb, 0.03),
    (HttpServerKind::Other, 0.16),
];

/// Server-conditioned multiplier on the duplicate-certificate rate
/// (Apache's two-file layout invites leaf duplication; Azure/IIS check).
fn duplicate_multiplier(server: HttpServerKind) -> f64 {
    match server {
        HttpServerKind::ApacheOld => 3.5,
        HttpServerKind::ApacheNew => 1.6,
        HttpServerKind::AwsElb => 2.6,
        HttpServerKind::Nginx => 0.6,
        HttpServerKind::Cloudflare => 0.3,
        HttpServerKind::AzureAppGateway => 0.4,
        HttpServerKind::Iis => 0.7,
        HttpServerKind::Other => 0.9,
    }
}

impl Corpus {
    /// Build the environment for a spec.
    pub fn new(spec: CorpusSpec) -> Corpus {
        let universe = CaUniverse::default_with_seed(spec.seed);
        let programs = RootPrograms::from_universe(&universe);
        let aia = AiaRepository::new(universe.aia_publications());
        let population = ca_population();
        let ca_weights: Vec<f64> = population.iter().map(|(p, _)| p.market_weight).collect();
        let master = Drbg::from_u64(spec.seed).fork("corpus");
        let g = Group::simulation_256();
        let leaf_keys: Vec<KeyPair> = (0..spec.leaf_key_pool.max(1))
            .map(|i| KeyPair::from_seed(g, format!("corpus-leaf-key/{}/{i}", spec.seed).as_bytes()))
            .collect();
        let mut aia = aia;
        let sub_cas: Vec<(ccc_x509::DistinguishedName, KeyPair, Certificate, String)> = universe
            .roots
            .iter()
            .enumerate()
            .map(|(i, root)| {
                let kp =
                    KeyPair::from_seed(g, format!("corpus-subca/{}/{i}", spec.seed).as_bytes());
                let dn = ccc_x509::DistinguishedName::cn_o(
                    format!("{} Sub CA", root.name),
                    root.name.clone(),
                );
                let int = &root.intermediates[0];
                let cert = CertificateBuilder::ca_profile(dn.clone())
                    .aia_ca_issuers(int.aia_uri.clone())
                    .issued_by(&kp.public, int.cert.subject().clone(), &int.keypair);
                let uri = format!("http://aia.sim/subca/{i}.crt");
                aia.publish(uri.clone(), cert.clone());
                (dn, kp, cert, uri)
            })
            .collect();
        let mut int_keys_by_subject = HashMap::new();
        let mut root_index_by_subject = HashMap::new();
        for (ri, root) in universe.roots.iter().enumerate() {
            root_index_by_subject.insert(root.cert.subject().clone(), ri);
            for int in &root.intermediates {
                int_keys_by_subject.insert(int.cert.subject().clone(), int.keypair.clone());
            }
        }
        Corpus {
            universe,
            programs,
            aia,
            spec,
            population,
            ca_weights,
            leaf_keys,
            sub_cas,
            int_keys_by_subject,
            root_index_by_subject,
            master,
        }
    }

    /// The Firefox-style intermediate cache: intermediates of the high
    /// volume CAs (the preloaded/previously-seen population), excluding
    /// regional and long-tail CAs — which is exactly why Firefox shows
    /// SEC_ERROR_UNKNOWN_ISSUER on rare-CA chains in the paper.
    pub fn intermediate_cache(&self) -> Vec<Certificate> {
        let mut cache = Vec::new();
        for ca_idx in 0..4 {
            // Let's Encrypt, DigiCert, Sectigo, ZeroSSL.
            for int in &self.universe.roots[ca_idx].intermediates {
                cache.push(int.cert.clone());
                cache.push(int.cert_no_akid.clone());
            }
        }
        cache
    }

    /// The fault plan at `rate`, seeded from the master corpus seed so a
    /// whole chaos sweep over one corpus is one seed (0.0 = the
    /// zero-fault plan, which leaves every analysis byte-identical).
    pub fn fault_plan_with_rate(&self, rate: f64) -> ccc_netsim::FaultPlan {
        if rate <= 0.0 {
            ccc_netsim::FaultPlan::zero(self.spec.seed)
        } else {
            ccc_netsim::FaultPlan::with_fault_rate(self.spec.seed, rate)
        }
    }

    /// Generate the observation for `rank` (deterministic, independent of
    /// other ranks).
    pub fn observation(&self, rank: usize) -> DomainObservation {
        let mut drbg = self.master.fork(&format!("domain/{rank}"));
        let domain = format!("domain{rank}.sim");

        // Special populations first.
        if drbg.chance(self.spec.test_cert_rate) {
            return self.test_cert_observation(rank, &domain, &mut drbg);
        }

        // CA bucket (with rare regional-root overrides for Table 8).
        let (profile, rates, regional_root) = self.sample_ca(&mut drbg);
        let ca_name = profile.name;
        let server = self.sample_server(&mut drbg);

        // Defect plan.
        let planned = self.sample_defect(&rates, server, &mut drbg);

        // Validity window: issued 1–10 months before the scan.
        let (not_before, not_after) = if planned == PlannedDefect::ExpiredLeaf {
            let start = scan_time().plus_days(-(400 + drbg.below(200) as i64));
            (start, start.plus_days(365))
        } else {
            let age_days = 30 + drbg.below(270) as i64;
            let start = scan_time().plus_days(-age_days);
            let duration = if drbg.chance(0.6) { 90 } else { 365 };
            // Re-roll age if it would have expired already.
            let start = if age_days >= duration {
                scan_time().plus_days(-(duration / 2))
            } else {
                start
            };
            (start, start.plus_days(duration))
        };

        let akid_absent = drbg.chance(self.spec.terminal_akid_absent_rate);
        let leaf_kp = &self.leaf_keys[drbg.below(self.leaf_keys.len() as u64) as usize];
        let int_idx = drbg.below(4) as usize;

        // Issue through the CA pipeline (or the regional pseudo-CA).
        let issue_domain = if planned == PlannedDefect::WrongHost {
            format!("alt{rank}.sim")
        } else {
            domain.clone()
        };
        let bundle = match regional_root {
            Some(root_idx) => {
                // Regional CAs behave like a typical manual CA.
                let mut p = profile.clone();
                p.universe_root = root_idx;
                p.issue_with_keypair(
                    &self.universe,
                    int_idx,
                    &issue_domain,
                    not_before,
                    not_after,
                    leaf_kp,
                    false, // regional chains keep AKID so Table 8's
                           // with-AIA diffs isolate store membership
                )
            }
            None => profile.issue_with_keypair(
                &self.universe,
                int_idx,
                &issue_domain,
                not_before,
                not_after,
                leaf_kp,
                akid_absent,
            ),
        };

        // Map the plan to an administrator behaviour + assembly. A plan
        // the server's upload checks reject is *realized* as a compliant
        // deployment (the admin fixes it), so `planned` is downgraded.
        let (mut served, rejected_by_server) =
            self.deploy(rank, &bundle, planned, server, &mut drbg);
        let planned = if rejected_by_server {
            PlannedDefect::None
        } else {
            planned
        };
        // Some administrators append the root certificate; compliant
        // order (leaf, intermediates, root) is preserved, so this only
        // moves chains between Table 7's "with root" and "without root"
        // rows.
        if matches!(
            planned,
            PlannedDefect::None | PlannedDefect::WrongHost | PlannedDefect::ExpiredLeaf
        ) && served.last() == Some(&bundle.intermediate)
            && drbg.chance(self.spec.root_included_rate)
        {
            let root_cert = self.universe.roots[self.root_index(&bundle.root)]
                .cert
                .clone();
            served.push(root_cert);
        }

        DomainObservation {
            rank,
            domain,
            ca: ca_name,
            server,
            served,
            planned,
            terminal_akid_absent: akid_absent && regional_root.is_none(),
        }
    }

    fn sample_ca(&self, drbg: &mut Drbg) -> (CaProfile, CaDefectRates, Option<usize>) {
        // Regional roots (Table 8 drivers) override the market sampling.
        let regional = if drbg.chance(self.spec.regional_mz_rate) {
            Some(10) // "Regional Root Sim MZ"
        } else if drbg.chance(self.spec.regional_ms_rate) {
            Some(11)
        } else if drbg.chance(self.spec.regional_ap_rate) {
            Some(12)
        } else {
            None
        };
        if let Some(root_idx) = regional {
            // Regional CAs use a Digicert-like manual profile and compliant
            // behaviour (their effect is trust-store membership, not
            // structure).
            let (profile, _) = &self.population[1];
            let mut p = profile.clone();
            p.name = match root_idx {
                10 => "Regional (MZ-excluded)",
                11 => "Regional (MS-excluded)",
                _ => "Regional (AP-excluded)",
            };
            return (
                p,
                CaDefectRates {
                    duplicate: 0.0,
                    irrelevant: 0.0,
                    multipath: 0.0,
                    reversed: 0.0,
                    incomplete: 0.0,
                },
                Some(root_idx),
            );
        }
        let idx = drbg.weighted_index(&self.ca_weights);
        let (profile, rates) = &self.population[idx];
        (profile.clone(), *rates, None)
    }

    fn sample_server(&self, drbg: &mut Drbg) -> HttpServerKind {
        let weights: Vec<f64> = SERVER_SHARES.iter().map(|(_, w)| *w).collect();
        SERVER_SHARES[drbg.weighted_index(&weights)].0
    }

    fn sample_defect(
        &self,
        rates: &CaDefectRates,
        server: HttpServerKind,
        drbg: &mut Drbg,
    ) -> PlannedDefect {
        // Leaf-identity overlays come first (independent of chain shape).
        if drbg.chance(self.spec.wrong_host_rate) {
            return PlannedDefect::WrongHost;
        }
        if drbg.chance(self.spec.expired_leaf_rate) {
            return PlannedDefect::ExpiredLeaf;
        }
        // Structural defects, at the CA's calibrated rates (duplicates
        // additionally coupled to the server's file layout).
        let dup_rate = rates.duplicate * duplicate_multiplier(server);
        if drbg.chance(dup_rate) {
            // Paper split: ~72% duplicate leaves, ~28% bundle copies, a
            // handful pathological.
            if drbg.chance(0.72) {
                return PlannedDefect::DuplicateLeaf;
            }
            return PlannedDefect::DuplicateBundle {
                huge: drbg.chance(0.004),
            };
        }
        if drbg.chance(rates.reversed) {
            return PlannedDefect::Reversed;
        }
        if drbg.chance(rates.incomplete) {
            return PlannedDefect::Incomplete;
        }
        if drbg.chance(rates.irrelevant) {
            // Paper split of irrelevant kinds: stale leaves 444, foreign
            // chains 840, unrelated roots 225 (+ misc).
            let pick = drbg.weighted_index(&[0.35, 0.5, 0.15]);
            return match pick {
                0 => PlannedDefect::StaleLeaves,
                1 => PlannedDefect::ForeignChain,
                _ => PlannedDefect::UnrelatedRoot,
            };
        }
        if drbg.chance(rates.multipath) {
            return PlannedDefect::MultiPath;
        }
        PlannedDefect::None
    }

    /// Assemble and deploy, honouring server-side checks (a rejected
    /// upload falls back to guided, compliant deployment — the mechanism
    /// by which Azure-style validation suppresses defects in Table 10).
    fn deploy(
        &self,
        rank: usize,
        bundle: &ccc_netsim::ca::IssuedBundle,
        planned: PlannedDefect,
        server: HttpServerKind,
        drbg: &mut Drbg,
    ) -> (Vec<Certificate>, bool) {
        let behavior = match planned {
            PlannedDefect::None | PlannedDefect::WrongHost | PlannedDefect::ExpiredLeaf => {
                // How often administrators merge files verbatim instead of
                // following the guide. For CAs that deliver a REVERSED
                // ca-bundle this is exactly the paper's Table 11 reversed
                // rate (the verbatim merge IS the reversal mechanism);
                // elsewhere a verbatim merge of compliant files is
                // harmless, so the rate only affects root inclusion.
                let naive_rate = match bundle.profile_name {
                    "GoGetSSL" => 0.084,
                    "cyber_Folks S.A." => 0.66,
                    "Trustico" => 0.67,
                    _ => 0.3,
                };
                if bundle.automated || !drbg.chance(naive_rate) {
                    AdminBehavior::FollowGuide
                } else {
                    AdminBehavior::NaiveMerge
                }
            }
            PlannedDefect::DuplicateLeaf => AdminBehavior::LeafInChainFile,
            PlannedDefect::DuplicateBundle { huge } => {
                let times = if huge {
                    10 + drbg.below(6) as usize
                } else {
                    1 + drbg.below(2) as usize
                };
                AdminBehavior::DuplicateBundle(times)
            }
            PlannedDefect::StaleLeaves => {
                let count = 1 + drbg.below(4) as usize;
                let mut old = Vec::with_capacity(count);
                for i in 0..count {
                    let age_years = (i + 1) as i64;
                    let start = scan_time().plus_days(-365 * age_years - 40);
                    let kp = &self.leaf_keys[drbg.below(self.leaf_keys.len() as u64) as usize];
                    let old_leaf = CertificateBuilder::leaf_profile(&bundle.domain)
                        .validity(start, start.plus_days(365))
                        .issued_by(
                            &kp.public,
                            bundle.intermediate.subject().clone(),
                            // Same issuing CA re-signed older leaves: reuse
                            // the intermediate key through the universe.
                            self.intermediate_keypair(bundle),
                        );
                    old.push(old_leaf);
                }
                AdminBehavior::StaleLeaves(old)
            }
            PlannedDefect::ForeignChain => {
                let foreign = self.foreign_chain(rank, drbg);
                AdminBehavior::AppendForeignChain(foreign)
            }
            PlannedDefect::UnrelatedRoot => {
                let gov_idx = self.universe.roots.len() - 2; // "Sim Gov Root"
                AdminBehavior::AppendForeignChain(vec![self.universe.roots[gov_idx].cert.clone()])
            }
            PlannedDefect::MultiPath => {
                // Custom assembly below.
                AdminBehavior::FollowGuide
            }
            PlannedDefect::Reversed => AdminBehavior::NaiveMerge,
            PlannedDefect::Incomplete => AdminBehavior::DropBundle,
            PlannedDefect::TestCertificate => unreachable!("handled earlier"),
        };

        // Multi-path gets a bespoke served list: leaf, original issuer,
        // the cross twin (cross inserted after, occasionally before —
        // the paper found most cross insertions reversed).
        if planned == PlannedDefect::MultiPath {
            return (self.multipath_list(bundle, drbg), false);
        }

        // A small share of reversed chains are DEEP (two intermediates in
        // reversed order, the paper's 1->2->0 shape): these are the chains
        // that actually defeat forward-only construction (I-1), because
        // the trust store cannot rescue an out-of-position intermediate.
        if planned == PlannedDefect::Reversed && drbg.chance(0.006) {
            return (self.deep_reversed_list(bundle, drbg), false);
        }

        // Incomplete chains subdivide per the paper's AIA findings:
        // ~94.5% completable via AIA (of which ~28% miss more than one
        // intermediate), ~4.8% with no AIA field at all, ~0.7% with a
        // dead AIA URI.
        if planned == PlannedDefect::Incomplete {
            let variant = drbg.weighted_index(&[0.68, 0.265, 0.048, 0.007]);
            if variant != 0 {
                let kp = &self.leaf_keys[drbg.below(self.leaf_keys.len() as u64) as usize];
                let mut b = CertificateBuilder::leaf_profile(&bundle.domain).validity(
                    bundle.leaf.validity().not_before,
                    bundle.leaf.validity().not_after,
                );
                if variant == 1 {
                    // Two missing intermediates: leaf under the sub-CA,
                    // neither the sub-CA nor the intermediate served.
                    let root_idx = self.root_index(&bundle.root);
                    let (sub_dn, sub_kp, _, sub_uri) = &self.sub_cas[root_idx];
                    let leaf = b.aia_ca_issuers(sub_uri.clone()).issued_by(
                        &kp.public,
                        sub_dn.clone(),
                        sub_kp,
                    );
                    return (vec![leaf], false);
                }
                if variant == 3 {
                    b = b.aia_ca_issuers(format!("http://aia.sim/dead/{rank}.crt"));
                }
                let int_kp = self.intermediate_keypair(bundle);
                let leaf = b.issued_by(&kp.public, bundle.intermediate.subject().clone(), int_kp);
                return (vec![leaf], false);
            }
        }

        // Reversed plan on a CA whose bundle is already compliant models
        // "reseller delivered reversed files": reverse the bundle first.
        let mut bundle = bundle.clone();
        // Some duplicate-bundle deployments also carry the root inside the
        // duplicated unit (paper: 401 chains with duplicated roots).
        if matches!(planned, PlannedDefect::DuplicateBundle { .. }) && drbg.chance(0.12) {
            match &mut bundle.ca_bundle {
                Some(cb) => cb.push(bundle.root.clone()),
                None => {
                    bundle.ca_bundle = Some(vec![bundle.intermediate.clone(), bundle.root.clone()])
                }
            }
        }
        if planned == PlannedDefect::Reversed {
            if let Some(cb) = &mut bundle.ca_bundle {
                // Ensure reversed delivery (include the root like the
                // reversed resellers do).
                let mut b = vec![bundle.intermediate.clone(), bundle.root.clone()];
                b.reverse();
                *cb = b;
            } else {
                bundle.fullchain = None;
                bundle.ca_bundle = Some(vec![bundle.root.clone(), bundle.intermediate.clone()]);
            }
        }

        let files = assemble(&bundle, &behavior, server);
        match server.deploy(&files) {
            Ok(served) => (served, false),
            Err(DeployError::DuplicateLeaf)
            | Err(DeployError::KeyMismatch)
            | Err(DeployError::NoCertificate) => {
                // Admin sees the error and follows the guide instead.
                let files = assemble(&bundle, &AdminBehavior::FollowGuide, server);
                let served = server.deploy(&files).expect("guided deployment succeeds");
                (served, true)
            }
        }
    }

    fn multipath_list(
        &self,
        bundle: &ccc_netsim::ca::IssuedBundle,
        drbg: &mut Drbg,
    ) -> Vec<Certificate> {
        // Find a cross pair under this bundle's CA if one exists;
        // otherwise fall back to any cross pair (rare path).
        let root_idx = self
            .root_index_by_subject
            .get(bundle.root.subject())
            .copied()
            .unwrap_or(0);
        let pair = self
            .universe
            .cross_signed
            .iter()
            .find(|cs| cs.subject.0 == root_idx)
            .or_else(|| self.universe.cross_signed.first())
            .expect("universe has cross pairs");
        let (ri, ii) = pair.subject;
        let int = &self.universe.roots[ri].intermediates[ii];
        // Re-issue the leaf under the cross-signed intermediate.
        let kp = &self.leaf_keys[drbg.below(self.leaf_keys.len() as u64) as usize];
        let leaf = CertificateBuilder::leaf_profile(&bundle.domain)
            .validity(
                bundle.leaf.validity().not_before,
                bundle.leaf.validity().not_after,
            )
            .aia_ca_issuers(int.aia_uri.clone())
            .issued_by(&kp.public, int.cert.subject().clone(), &int.keypair);
        // Paper: cross certificates are mostly inserted at the wrong spot
        // (before their sibling), creating a reversed path.
        if drbg.chance(0.8) {
            vec![leaf, int.cert.clone(), pair.cross_cert.clone()]
        } else {
            vec![leaf, pair.cross_cert.clone(), int.cert.clone()]
        }
    }

    /// The paper's most common reversed shape: the true chain is
    /// leaf <- subca <- intermediate (<- root omitted), served as
    /// [leaf, intermediate, subca] (optionally with the root inserted at
    /// position 1 for the four-certificate 1->2->3->0 variant).
    fn deep_reversed_list(
        &self,
        bundle: &ccc_netsim::ca::IssuedBundle,
        drbg: &mut Drbg,
    ) -> Vec<Certificate> {
        let root_idx = self.root_index(&bundle.root);
        let (sub_dn, sub_kp, sub_cert, _) = &self.sub_cas[root_idx];
        let int0 = &self.universe.roots[root_idx].intermediates[0];
        let kp = &self.leaf_keys[drbg.below(self.leaf_keys.len() as u64) as usize];
        let leaf = CertificateBuilder::leaf_profile(&bundle.domain)
            .validity(
                bundle.leaf.validity().not_before,
                bundle.leaf.validity().not_after,
            )
            .issued_by(&kp.public, sub_dn.clone(), sub_kp);
        if drbg.chance(0.25) {
            vec![
                leaf,
                bundle.root.clone(),
                int0.cert.clone(),
                sub_cert.clone(),
            ]
        } else {
            vec![leaf, int0.cert.clone(), sub_cert.clone()]
        }
    }

    /// Memoized lookup of the issuing intermediate's key pair (keys are
    /// derived once at construction; per-rank paths only borrow).
    fn intermediate_keypair(&self, bundle: &ccc_netsim::ca::IssuedBundle) -> &KeyPair {
        self.int_keys_by_subject
            .get(bundle.intermediate.subject())
            .expect("bundle intermediate always from the universe")
    }

    /// Memoized root-certificate → universe-index lookup (subject DNs are
    /// unique per root; avoids whole-certificate equality scans per rank).
    fn root_index(&self, root_cert: &Certificate) -> usize {
        *self
            .root_index_by_subject
            .get(root_cert.subject())
            .expect("root from universe")
    }

    fn foreign_chain(&self, rank: usize, drbg: &mut Drbg) -> Vec<Certificate> {
        // A chain from a different hierarchy managed by the same admin
        // (often government CAs in the paper's example).
        let gov_idx = self.universe.roots.len() - 2;
        let gov = &self.universe.roots[gov_idx];
        let int = &gov.intermediates[drbg.below(gov.intermediates.len() as u64) as usize];
        let kp = &self.leaf_keys[drbg.below(self.leaf_keys.len() as u64) as usize];
        let leaf = CertificateBuilder::leaf_profile(&format!("foreign{rank}.gov.sim")).issued_by(
            &kp.public,
            int.cert.subject().clone(),
            &int.keypair,
        );
        vec![leaf, int.cert.clone(), gov.cert.clone()]
    }

    fn test_cert_observation(
        &self,
        rank: usize,
        domain: &str,
        drbg: &mut Drbg,
    ) -> DomainObservation {
        let cn = match drbg.below(3) {
            0 => "Plesk",
            1 => "localhost",
            _ => "testexp",
        };
        let kp = &self.leaf_keys[drbg.below(self.leaf_keys.len() as u64) as usize];
        let cert = CertificateBuilder::new(DistinguishedName::cn(cn))
            .validity(scan_time().plus_days(-100), scan_time().plus_days(265))
            .self_signed(&KeyPair {
                private: kp.private.clone(),
                public: kp.public.clone(),
            });
        DomainObservation {
            rank,
            domain: domain.to_string(),
            ca: "self-signed",
            server: self.sample_server(drbg),
            served: vec![cert],
            planned: PlannedDefect::TestCertificate,
            terminal_akid_absent: false,
        }
    }

    /// Stream every observation through `f`.
    ///
    /// This is the memory-bounded access path: each observation is
    /// generated, handed to `f`, and dropped — a 1M-domain sweep holds
    /// exactly one observation at a time. Multi-consumer sweeps should use
    /// the fused pipeline in `ccc-bench` (one generation, N analyses)
    /// rather than calling `for_each` once per analysis.
    pub fn for_each(&self, mut f: impl FnMut(DomainObservation)) {
        for rank in 0..self.spec.domains {
            f(self.observation(rank));
        }
    }

    /// Collect all observations.
    ///
    /// **Only for small corpora**: memory is O(corpus), unlike
    /// [`for_each`](Self::for_each) (O(1)) and the fused pipeline in
    /// `ccc-bench` (one observation per worker). Use those for anything
    /// that scales with `spec.domains`; `collect` suits fixtures and
    /// benches that revisit a small fixed set of observations.
    pub fn collect(&self) -> Vec<DomainObservation> {
        (0..self.spec.domains)
            .map(|r| self.observation(r))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccc_core::topology::IssuanceChecker;
    use ccc_core::{analyze_order, CompletenessAnalyzer};
    use std::collections::BTreeMap;

    fn small_corpus() -> Corpus {
        Corpus::new(CorpusSpec::calibrated(2024, 400))
    }

    #[test]
    fn deterministic_per_rank() {
        // Equal across two corpora built from one spec, and across two
        // generations from one instance (regeneration keeps no state).
        let c1 = small_corpus();
        let c2 = small_corpus();
        for rank in [0usize, 7, 99, 399] {
            let a = c1.observation(rank);
            let b = c2.observation(rank);
            assert_eq!(a.served, b.served, "rank {rank}");
            assert_eq!(a.planned, b.planned);
            let again = c1.observation(rank);
            assert_eq!(again.rank, rank);
            assert_eq!(again.served, a.served, "rank {rank} regenerated");
            assert_eq!(again.planned, a.planned);
        }
    }

    #[test]
    fn majority_compliant() {
        let corpus = small_corpus();
        let mut compliant = 0;
        corpus.for_each(|obs| {
            if obs.planned == PlannedDefect::None {
                compliant += 1;
            }
        });
        // Paper: ~97% compliant; at n=400 allow slack.
        assert!(compliant > 320, "only {compliant}/400 compliant");
    }

    #[test]
    fn planned_defects_materialize() {
        // Use a bigger corpus and verify each planned defect appears in
        // the analyzers' output.
        let corpus = Corpus::new(CorpusSpec::calibrated(7, 1500));
        let checker = IssuanceChecker::new();
        let analyzer =
            CompletenessAnalyzer::new(&checker, corpus.programs.unified(), Some(&corpus.aia));
        let mut seen: BTreeMap<PlannedDefect, usize> = BTreeMap::new();
        let mut mismatches = 0usize;
        corpus.for_each(|obs| {
            *seen.entry(obs.planned).or_insert(0) += 1;
            let order = analyze_order(&obs.served, &checker);
            match obs.planned {
                PlannedDefect::DuplicateLeaf if order.duplicates.leaf == 0 => {
                    mismatches += 1;
                }
                PlannedDefect::DuplicateBundle { .. } if order.duplicates.total() == 0 => {
                    mismatches += 1;
                }
                PlannedDefect::Reversed if !order.has_reversed() => {
                    mismatches += 1;
                }
                PlannedDefect::StaleLeaves
                | PlannedDefect::ForeignChain
                | PlannedDefect::UnrelatedRoot
                    if !order.has_irrelevant() =>
                {
                    mismatches += 1;
                }
                PlannedDefect::MultiPath if !order.has_multiple_paths() => {
                    mismatches += 1;
                }
                PlannedDefect::Incomplete => {
                    let c = analyzer.analyze(&obs.served);
                    if c.completeness != ccc_core::Completeness::Incomplete {
                        mismatches += 1;
                    }
                }
                PlannedDefect::None if !order.is_compliant() => {
                    mismatches += 1;
                }
                _ => {}
            }
        });
        assert_eq!(mismatches, 0, "planned defects must materialize: {seen:?}");
        // The corpus at n=1500 should exercise several defect kinds.
        assert!(seen.len() >= 5, "{seen:?}");
    }

    #[test]
    fn wrong_host_chains_mismatch() {
        let corpus = Corpus::new(CorpusSpec::calibrated(11, 800));
        let mut found = 0;
        corpus.for_each(|obs| {
            if obs.planned == PlannedDefect::WrongHost {
                found += 1;
                let placement = ccc_core::classify_leaf_placement(&obs.domain, &obs.served);
                assert_eq!(
                    placement,
                    ccc_core::LeafPlacement::CorrectlyPlacedMismatched,
                    "rank {}",
                    obs.rank
                );
            }
        });
        assert!(found > 20, "expected ~6.9% wrong-host, found {found}/800");
    }

    #[test]
    fn test_certs_classified_other() {
        let corpus = Corpus::new(CorpusSpec::calibrated(13, 2000));
        let mut found = 0;
        corpus.for_each(|obs| {
            if obs.planned == PlannedDefect::TestCertificate {
                found += 1;
                let placement = ccc_core::classify_leaf_placement(&obs.domain, &obs.served);
                assert_eq!(placement, ccc_core::LeafPlacement::Other);
            }
        });
        assert!(found >= 3, "expected ~0.6% test certs, found {found}/2000");
    }

    #[test]
    fn akid_absent_rate_close_to_target() {
        let corpus = Corpus::new(CorpusSpec::calibrated(17, 1000));
        let mut absent = 0;
        corpus.for_each(|obs| {
            if obs.terminal_akid_absent {
                absent += 1;
            }
        });
        let rate = absent as f64 / 1000.0;
        assert!((0.19..=0.31).contains(&rate), "rate {rate}");
    }

    #[test]
    fn fault_plan_with_rate_is_seeded_from_the_corpus() {
        let corpus = Corpus::new(CorpusSpec::calibrated(7, 4));
        let zero = corpus.fault_plan_with_rate(0.0);
        assert!(zero.is_zero());
        assert_eq!(zero, ccc_netsim::FaultPlan::zero(7));

        let plan = corpus.fault_plan_with_rate(0.2);
        assert!(!plan.is_zero());
        assert_eq!(plan, ccc_netsim::FaultPlan::with_fault_rate(7, 0.2));
    }

    #[test]
    fn cache_contains_only_big_ca_intermediates() {
        let corpus = small_corpus();
        let cache = corpus.intermediate_cache();
        assert!(!cache.is_empty());
        for cert in &cache {
            let subject = cert.subject().to_string();
            assert!(
                [
                    "Let's Encrypt Sim",
                    "DigiCert Sim",
                    "Sectigo Sim",
                    "ZeroSSL Sim"
                ]
                .iter()
                .any(|org| subject.contains(&format!(", O={org}, "))),
                "unexpected cached subject {subject}"
            );
        }
    }
}
