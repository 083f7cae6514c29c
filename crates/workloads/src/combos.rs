//! Workload combination classes — paper Tables 7 and 8.
//!
//! Six classes of quad-core workload combinations: C1/C2 are stress
//! tests (four identical applications, capacity sharing only), C3–C6 mix
//! class-A applications with classes B/C/D. 21 combinations in total.

use crate::spec::Benchmark;

/// The six combination classes of Table 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[expect(
    missing_docs,
    reason = "the variants are the paper's class names C1-C6"
)]
pub enum ComboClass {
    C1,
    C2,
    C3,
    C4,
    C5,
    C6,
}

impl ComboClass {
    /// All six classes in paper order.
    pub const ALL: [ComboClass; 6] = [
        ComboClass::C1,
        ComboClass::C2,
        ComboClass::C3,
        ComboClass::C4,
        ComboClass::C5,
        ComboClass::C6,
    ];

    /// Display name ("C1" … "C6").
    pub fn name(self) -> &'static str {
        match self {
            ComboClass::C1 => "C1",
            ComboClass::C2 => "C2",
            ComboClass::C3 => "C3",
            ComboClass::C4 => "C4",
            ComboClass::C5 => "C5",
            ComboClass::C6 => "C6",
        }
    }

    /// Parse a class name ("C1".."C6", case-insensitive).
    pub fn from_name(name: &str) -> Option<ComboClass> {
        ComboClass::ALL
            .into_iter()
            .find(|c| c.name().eq_ignore_ascii_case(name))
    }

    /// Table 7 description.
    pub fn description(self) -> &'static str {
        match self {
            ComboClass::C1 => "4 identical class-A applications (stress test, no data sharing)",
            ComboClass::C2 => "4 identical class-C applications (stress test, no data sharing)",
            ComboClass::C3 => "2 class-A + 2 class-C applications",
            ComboClass::C4 => "2 class-A + 1 class-B + 1 class-C application",
            ComboClass::C5 => "2 class-A + 2 class-D applications",
            ComboClass::C6 => "2 class-A + 1 class-B + 1 class-D application",
        }
    }
}

impl std::str::FromStr for ComboClass {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ComboClass::from_name(s)
            .ok_or_else(|| format!("unknown combination class `{s}` (expected C1..C6)"))
    }
}

/// One quad-core workload combination (a row of Table 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Combo {
    /// The class this combination belongs to.
    pub class: ComboClass,
    /// The four co-scheduled benchmarks (core 0..3).
    pub apps: [Benchmark; 4],
}

impl Combo {
    /// A compact label like "ammp+parser+bzip2+mcf".
    pub fn label(&self) -> String {
        self.apps
            .iter()
            .map(|b| b.name())
            .collect::<Vec<_>>()
            .join("+")
    }
}

/// The full Table 8: 21 combinations in 6 classes.
pub fn all_combos() -> Vec<Combo> {
    use Benchmark::*;
    let c = |class, a, b, c_, d| Combo {
        class,
        apps: [a, b, c_, d],
    };
    vec![
        // C1: stress tests over class A.
        c(ComboClass::C1, Ammp, Ammp, Ammp, Ammp),
        c(ComboClass::C1, Parser, Parser, Parser, Parser),
        c(ComboClass::C1, Vortex, Vortex, Vortex, Vortex),
        // C2: stress tests over class C.
        c(ComboClass::C2, Vpr, Vpr, Vpr, Vpr),
        c(ComboClass::C2, Bzip2, Bzip2, Bzip2, Bzip2),
        c(ComboClass::C2, Mcf, Mcf, Mcf, Mcf),
        c(ComboClass::C2, Art, Art, Art, Art),
        // C3: 2×A + 2×C.
        c(ComboClass::C3, Ammp, Parser, Bzip2, Mcf),
        c(ComboClass::C3, Parser, Vortex, Mcf, Art),
        c(ComboClass::C3, Vortex, Ammp, Art, Vpr),
        // C4: 2×A + B + C.
        c(ComboClass::C4, Ammp, Parser, Apsi, Bzip2),
        c(ComboClass::C4, Parser, Vortex, Gcc, Mcf),
        c(ComboClass::C4, Vortex, Ammp, Apsi, Art),
        c(ComboClass::C4, Ammp, Parser, Gcc, Vpr),
        // C5: 2×A + 2×D.
        c(ComboClass::C5, Ammp, Parser, Swim, Mesa),
        c(ComboClass::C5, Parser, Vortex, Mesa, Gzip),
        c(ComboClass::C5, Vortex, Ammp, Swim, Gzip),
        // C6: 2×A + B + D.
        c(ComboClass::C6, Vortex, Ammp, Apsi, Gzip),
        c(ComboClass::C6, Parser, Vortex, Gcc, Mesa),
        c(ComboClass::C6, Ammp, Parser, Apsi, Swim),
        c(ComboClass::C6, Vortex, Ammp, Gcc, Mesa),
    ]
}

/// The combinations belonging to one class.
pub fn combos_in_class(class: ComboClass) -> Vec<Combo> {
    all_combos()
        .into_iter()
        .filter(|c| c.class == class)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AppClass;

    #[test]
    fn twenty_one_combos_total() {
        assert_eq!(all_combos().len(), 21);
    }

    #[test]
    fn class_sizes_match_table8() {
        let sizes: Vec<usize> = ComboClass::ALL
            .iter()
            .map(|&c| combos_in_class(c).len())
            .collect();
        assert_eq!(sizes, vec![3, 4, 3, 4, 3, 4]);
    }

    #[test]
    fn stress_tests_are_homogeneous() {
        for combo in combos_in_class(ComboClass::C1)
            .iter()
            .chain(&combos_in_class(ComboClass::C2))
        {
            assert!(
                combo.apps.iter().all(|a| *a == combo.apps[0]),
                "{}",
                combo.label()
            );
        }
        for combo in combos_in_class(ComboClass::C1) {
            assert_eq!(combo.apps[0].class(), AppClass::A);
        }
        for combo in combos_in_class(ComboClass::C2) {
            assert_eq!(combo.apps[0].class(), AppClass::C);
        }
    }

    #[test]
    fn mixed_classes_match_table7_recipes() {
        let count = |combo: &Combo, class: AppClass| {
            combo.apps.iter().filter(|a| a.class() == class).count()
        };
        for combo in combos_in_class(ComboClass::C3) {
            assert_eq!(count(&combo, AppClass::A), 2, "{}", combo.label());
            assert_eq!(count(&combo, AppClass::C), 2, "{}", combo.label());
        }
        for combo in combos_in_class(ComboClass::C4) {
            assert_eq!(count(&combo, AppClass::A), 2);
            assert_eq!(count(&combo, AppClass::B), 1);
            assert_eq!(count(&combo, AppClass::C), 1);
        }
        for combo in combos_in_class(ComboClass::C5) {
            assert_eq!(count(&combo, AppClass::A), 2);
            assert_eq!(count(&combo, AppClass::D), 2);
        }
        for combo in combos_in_class(ComboClass::C6) {
            assert_eq!(count(&combo, AppClass::A), 2);
            assert_eq!(count(&combo, AppClass::B), 1);
            assert_eq!(count(&combo, AppClass::D), 1);
        }
    }

    #[test]
    fn mixed_combos_use_two_distinct_class_a_apps() {
        // Table 7: "(2 *different* applications from class A)".
        for class in [
            ComboClass::C3,
            ComboClass::C4,
            ComboClass::C5,
            ComboClass::C6,
        ] {
            for combo in combos_in_class(class) {
                let a_apps: Vec<_> = combo
                    .apps
                    .iter()
                    .filter(|a| a.class() == AppClass::A)
                    .collect();
                assert_ne!(a_apps[0], a_apps[1], "{}", combo.label());
            }
        }
    }

    #[test]
    fn class_names_parse_back() {
        for class in ComboClass::ALL {
            assert_eq!(class.name().parse::<ComboClass>().unwrap(), class);
            assert_eq!(
                class.name().to_lowercase().parse::<ComboClass>().unwrap(),
                class
            );
        }
        assert!("C7".parse::<ComboClass>().is_err());
        assert!("".parse::<ComboClass>().is_err());
    }

    #[test]
    fn labels_are_readable() {
        let combo = all_combos()[7];
        assert_eq!(combo.label(), "ammp+parser+bzip2+mcf");
    }

    #[test]
    fn every_evaluation_benchmark_appears() {
        let used: std::collections::BTreeSet<&str> = all_combos()
            .iter()
            .flat_map(|c| c.apps)
            .map(|b| b.name())
            .collect();
        assert_eq!(
            used.len(),
            12,
            "all 12 evaluation benchmarks used (applu excluded)"
        );
        assert!(!used.contains(Benchmark::Applu.name()));
    }
}
