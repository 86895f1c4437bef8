//! The four root programs and their union.

use crate::store::RootStore;
use crate::universe::CaUniverse;
use std::fmt;

/// A root program identity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum RootProgram {
    /// Mozilla NSS root program.
    Mozilla,
    /// Chrome Root Store.
    Chrome,
    /// Microsoft Trusted Root Program.
    Microsoft,
    /// Apple Root Program.
    Apple,
}

impl RootProgram {
    /// All four programs in display order.
    pub const ALL: [RootProgram; 4] = [
        RootProgram::Mozilla,
        RootProgram::Chrome,
        RootProgram::Microsoft,
        RootProgram::Apple,
    ];
}

impl fmt::Display for RootProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RootProgram::Mozilla => "Mozilla",
            RootProgram::Chrome => "Chrome",
            RootProgram::Microsoft => "Microsoft",
            RootProgram::Apple => "Apple",
        };
        write!(f, "{name}")
    }
}

/// The four program stores plus their union, built from a universe.
#[derive(Clone, Debug)]
pub struct RootPrograms {
    mozilla: RootStore,
    chrome: RootStore,
    microsoft: RootStore,
    apple: RootStore,
    unified: RootStore,
}

impl RootPrograms {
    /// Build program stores from the universe's trust metadata.
    pub fn from_universe(universe: &CaUniverse) -> RootPrograms {
        let mut stores: Vec<(RootProgram, RootStore)> = RootProgram::ALL
            .iter()
            .map(|&p| (p, RootStore::new(p.to_string().to_lowercase(), Vec::new())))
            .collect();
        for root in universe.trusted_roots() {
            for (program, store) in stores.iter_mut() {
                if !root.excluded_from.contains(program) {
                    store.add(root.cert.clone());
                }
            }
        }
        let by = |p: RootProgram, stores: &[(RootProgram, RootStore)]| {
            stores
                .iter()
                .find(|(q, _)| *q == p)
                .map(|(_, s)| s.clone())
                .expect("program present")
        };
        let mozilla = by(RootProgram::Mozilla, &stores);
        let chrome = by(RootProgram::Chrome, &stores);
        let microsoft = by(RootProgram::Microsoft, &stores);
        let apple = by(RootProgram::Apple, &stores);
        let unified = RootStore::union("unified", &[&mozilla, &chrome, &microsoft, &apple]);
        RootPrograms {
            mozilla,
            chrome,
            microsoft,
            apple,
            unified,
        }
    }

    /// Store for one program.
    pub fn store(&self, program: RootProgram) -> &RootStore {
        match program {
            RootProgram::Mozilla => &self.mozilla,
            RootProgram::Chrome => &self.chrome,
            RootProgram::Microsoft => &self.microsoft,
            RootProgram::Apple => &self.apple,
        }
    }

    /// The union of all four stores (the paper's "unified root store").
    pub fn unified(&self) -> &RootStore {
        &self.unified
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn programs_respect_exclusions() {
        let u = CaUniverse::default_with_seed(11);
        let programs = RootPrograms::from_universe(&u);
        // Default population: 11 trusted roots; MZ-excluded root missing
        // from Mozilla and Chrome; MS root from Microsoft; AP from Apple.
        assert_eq!(programs.unified().len(), 13);
        assert_eq!(programs.store(RootProgram::Mozilla).len(), 12);
        assert_eq!(programs.store(RootProgram::Chrome).len(), 12);
        assert_eq!(programs.store(RootProgram::Microsoft).len(), 12);
        assert_eq!(programs.store(RootProgram::Apple).len(), 12);
        // Untrusted roots appear nowhere.
        for root in &u.roots {
            if !root.trusted {
                assert!(!programs.unified().contains(&root.cert));
            }
        }
    }

    #[test]
    fn excluded_root_is_in_union_but_not_its_programs() {
        let u = CaUniverse::default_with_seed(11);
        let programs = RootPrograms::from_universe(&u);
        let mz_excluded = u
            .roots
            .iter()
            .find(|r| r.name.contains("Sim MZ"))
            .expect("MZ root present");
        assert!(programs.unified().contains(&mz_excluded.cert));
        assert!(!programs
            .store(RootProgram::Mozilla)
            .contains(&mz_excluded.cert));
        assert!(!programs
            .store(RootProgram::Chrome)
            .contains(&mz_excluded.cert));
        assert!(programs
            .store(RootProgram::Microsoft)
            .contains(&mz_excluded.cert));
        assert!(programs
            .store(RootProgram::Apple)
            .contains(&mz_excluded.cert));
    }
}
