//! The 13 benchmark models used by the paper's evaluation, calibrated to
//! Table 6's classification and (for ammp/vortex/applu) the bucket
//! distributions of Figures 1–3.
//!
//! | Class | App-level demand | Set-level | Benchmarks |
//! |-------|------------------|-----------|------------|
//! | A     | > 1 MB           | non-uniform | ammp, parser, vortex |
//! | B     | < 1 MB           | non-uniform | apsi, gcc |
//! | C     | > 1 MB           | uniform     | vpr, art, mcf, bzip2 |
//! | D     | < 1 MB           | uniform     | gzip, swim, mesa |
//!
//! `applu` (streaming, Fig. 3) appears only in the characterisation.
//!
//! Calibration rule of thumb: the baseline L2 slice is 16-way with 1024
//! sets of 64 B lines, so a mean per-set demand above 16 blocks means an
//! application-level demand above 1 MB.

use crate::model::{BenchmarkSpec, DemandComponent, DemandProfile, Pattern, Phase};

/// Table 6 application classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppClass {
    /// > 1 MB, set-level non-uniform.
    A,
    /// < 1 MB, set-level non-uniform.
    B,
    /// > 1 MB, set-level uniform.
    C,
    /// < 1 MB, set-level uniform.
    D,
    /// Pure streaming (applu; characterisation only).
    Streaming,
}

impl AppClass {
    /// Table 6 name: `A`–`D`, or `streaming` for applu.
    pub fn name(self) -> &'static str {
        match self {
            AppClass::A => "A",
            AppClass::B => "B",
            AppClass::C => "C",
            AppClass::D => "D",
            AppClass::Streaming => "streaming",
        }
    }
}

/// The benchmarks modelled from the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[expect(
    missing_docs,
    reason = "the variants are the paper's SPEC benchmark names"
)]
pub enum Benchmark {
    Ammp,
    Parser,
    Vortex,
    Apsi,
    Gcc,
    Vpr,
    Art,
    Mcf,
    Bzip2,
    Gzip,
    Swim,
    Mesa,
    Applu,
}

impl Benchmark {
    /// All thirteen modelled benchmarks.
    pub const ALL: [Benchmark; 13] = [
        Benchmark::Ammp,
        Benchmark::Parser,
        Benchmark::Vortex,
        Benchmark::Apsi,
        Benchmark::Gcc,
        Benchmark::Vpr,
        Benchmark::Art,
        Benchmark::Mcf,
        Benchmark::Bzip2,
        Benchmark::Gzip,
        Benchmark::Swim,
        Benchmark::Mesa,
        Benchmark::Applu,
    ];

    /// Benchmark name as the paper spells it.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Ammp => "ammp",
            Benchmark::Parser => "parser",
            Benchmark::Vortex => "vortex",
            Benchmark::Apsi => "apsi",
            Benchmark::Gcc => "gcc",
            Benchmark::Vpr => "vpr",
            Benchmark::Art => "art",
            Benchmark::Mcf => "mcf",
            Benchmark::Bzip2 => "bzip2",
            Benchmark::Gzip => "gzip",
            Benchmark::Swim => "swim",
            Benchmark::Mesa => "mesa",
            Benchmark::Applu => "applu",
        }
    }

    /// Parse a paper-style name.
    pub(crate) fn from_name(name: &str) -> Option<Benchmark> {
        Benchmark::ALL.into_iter().find(|b| b.name() == name)
    }

    /// Table 6 class.
    pub fn class(self) -> AppClass {
        match self {
            Benchmark::Ammp | Benchmark::Parser | Benchmark::Vortex => AppClass::A,
            Benchmark::Apsi | Benchmark::Gcc => AppClass::B,
            Benchmark::Vpr | Benchmark::Art | Benchmark::Mcf | Benchmark::Bzip2 => AppClass::C,
            Benchmark::Gzip | Benchmark::Swim | Benchmark::Mesa => AppClass::D,
            Benchmark::Applu => AppClass::Streaming,
        }
    }

    /// The synthetic model for this benchmark.
    pub fn spec(self) -> BenchmarkSpec {
        let c = |w, lo, hi| DemandComponent::new(w, lo, hi);
        let single = |components: Vec<DemandComponent>, near: f64, window: usize| Pattern::Pooled {
            phases: vec![Phase {
                fraction: 1.0,
                profile: DemandProfile {
                    components,
                    near_fraction: near,
                    near_window: window,
                },
            }],
            cycle_accesses: 40_000_000,
        };
        match self {
            // ---- Class A: > 1 MB, strongly non-uniform --------------
            // ammp (Fig. 1): ~40 % of sets need only 1–4 blocks through
            // the whole run; most of the rest exceed the 16-way baseline.
            Benchmark::Ammp => BenchmarkSpec {
                name: "ammp".into(),
                pattern: single(
                    vec![
                        c(0.38, 1, 4),
                        c(0.06, 9, 16),
                        c(0.38, 18, 26),
                        c(0.18, 30, 44),
                    ],
                    0.45,
                    14,
                ),
                gap_mean: 7,
                write_fraction: 0.06,
                dependent_fraction: 0.45,
                burst_mean: 2,
                seed: 0xA001,
            },
            Benchmark::Parser => BenchmarkSpec {
                name: "parser".into(),
                pattern: Pattern::Pooled {
                    phases: vec![
                        Phase {
                            fraction: 0.6,
                            profile: DemandProfile {
                                components: vec![
                                    c(0.28, 1, 4),
                                    c(0.12, 5, 8),
                                    c(0.40, 17, 26),
                                    c(0.20, 30, 40),
                                ],
                                near_fraction: 0.40,
                                near_window: 14,
                            },
                        },
                        Phase {
                            fraction: 0.4,
                            profile: DemandProfile {
                                components: vec![
                                    c(0.32, 1, 4),
                                    c(0.08, 5, 8),
                                    c(0.38, 18, 28),
                                    c(0.22, 30, 40),
                                ],
                                near_fraction: 0.40,
                                near_window: 14,
                            },
                        },
                    ],
                    cycle_accesses: 40_000_000,
                },
                gap_mean: 8,
                write_fraction: 0.05,
                dependent_fraction: 0.45,
                burst_mean: 2,
                seed: 0xA002,
            },
            // vortex (Fig. 2): a long middle phase (intervals ~405–792)
            // where ~15 % of sets need 1–4 blocks, ~9 % need 5–8 and
            // ~7 % need 9–12.
            Benchmark::Vortex => BenchmarkSpec {
                name: "vortex".into(),
                pattern: Pattern::Pooled {
                    phases: vec![
                        Phase {
                            fraction: 0.40,
                            profile: DemandProfile {
                                components: vec![
                                    c(0.10, 1, 4),
                                    c(0.08, 5, 8),
                                    c(0.07, 9, 12),
                                    c(0.50, 17, 26),
                                    c(0.25, 30, 44),
                                ],
                                near_fraction: 0.45,
                                near_window: 14,
                            },
                        },
                        Phase {
                            fraction: 0.39,
                            profile: DemandProfile {
                                components: vec![
                                    c(0.15, 1, 4),
                                    c(0.09, 5, 8),
                                    c(0.07, 9, 12),
                                    c(0.45, 17, 26),
                                    c(0.24, 30, 44),
                                ],
                                near_fraction: 0.45,
                                near_window: 14,
                            },
                        },
                        Phase {
                            fraction: 0.21,
                            profile: DemandProfile {
                                components: vec![
                                    c(0.10, 1, 4),
                                    c(0.08, 5, 8),
                                    c(0.07, 9, 12),
                                    c(0.50, 17, 26),
                                    c(0.25, 30, 44),
                                ],
                                near_fraction: 0.45,
                                near_window: 14,
                            },
                        },
                    ],
                    cycle_accesses: 40_000_000,
                },
                gap_mean: 7,
                write_fraction: 0.08,
                dependent_fraction: 0.4,
                burst_mean: 2,
                seed: 0xA003,
            },
            // ---- Class B: < 1 MB, non-uniform ------------------------
            Benchmark::Apsi => BenchmarkSpec {
                name: "apsi".into(),
                pattern: single(
                    vec![
                        c(0.45, 1, 4),
                        c(0.25, 5, 8),
                        c(0.10, 9, 16),
                        c(0.20, 17, 24),
                    ],
                    0.50,
                    12,
                ),
                gap_mean: 8,
                write_fraction: 0.07,
                dependent_fraction: 0.35,
                burst_mean: 2,
                seed: 0xB001,
            },
            Benchmark::Gcc => BenchmarkSpec {
                name: "gcc".into(),
                pattern: Pattern::Pooled {
                    phases: vec![
                        Phase {
                            fraction: 0.5,
                            profile: DemandProfile {
                                components: vec![
                                    c(0.50, 1, 4),
                                    c(0.15, 5, 12),
                                    c(0.15, 13, 16),
                                    c(0.20, 17, 28),
                                ],
                                near_fraction: 0.50,
                                near_window: 12,
                            },
                        },
                        Phase {
                            fraction: 0.5,
                            profile: DemandProfile {
                                components: vec![
                                    c(0.45, 1, 4),
                                    c(0.20, 5, 12),
                                    c(0.15, 13, 16),
                                    c(0.20, 18, 26),
                                ],
                                near_fraction: 0.50,
                                near_window: 12,
                            },
                        },
                    ],
                    cycle_accesses: 40_000_000,
                },
                gap_mean: 8,
                write_fraction: 0.10,
                dependent_fraction: 0.4,
                burst_mean: 2,
                seed: 0xB002,
            },
            // ---- Class C: > 1 MB, uniform ----------------------------
            // Working sets reach well beyond twice the slice capacity
            // for art/mcf (their real footprints are tens to hundreds of
            // MB): spilled victims mostly die before re-reference, which
            // is why eviction-driven CC cannot help the C2 stress tests.
            // Reuse reaches mid stack depths (near_window), so capacity
            // stolen by received spills destroys real hits.
            Benchmark::Vpr => BenchmarkSpec {
                name: "vpr".into(),
                pattern: single(vec![c(1.0, 18, 26)], 0.50, 14),
                gap_mean: 8,
                write_fraction: 0.10,
                dependent_fraction: 0.45,
                burst_mean: 2,
                seed: 0xC001,
            },
            Benchmark::Art => BenchmarkSpec {
                name: "art".into(),
                pattern: single(vec![c(1.0, 30, 44)], 0.45, 14),
                gap_mean: 5,
                write_fraction: 0.05,
                dependent_fraction: 0.55,
                burst_mean: 1,
                seed: 0xC002,
            },
            Benchmark::Mcf => BenchmarkSpec {
                name: "mcf".into(),
                pattern: single(vec![c(1.0, 44, 64)], 0.40, 14),
                gap_mean: 3,
                write_fraction: 0.05,
                dependent_fraction: 0.65,
                burst_mean: 1,
                seed: 0xC003,
            },
            Benchmark::Bzip2 => BenchmarkSpec {
                name: "bzip2".into(),
                pattern: single(vec![c(1.0, 17, 24)], 0.55, 14),
                gap_mean: 8,
                write_fraction: 0.12,
                dependent_fraction: 0.4,
                burst_mean: 2,
                seed: 0xC004,
            },
            // ---- Class D: < 1 MB, uniform ----------------------------
            Benchmark::Gzip => BenchmarkSpec {
                name: "gzip".into(),
                pattern: single(vec![c(1.0, 2, 6)], 0.55, 4),
                gap_mean: 9,
                write_fraction: 0.15,
                dependent_fraction: 0.3,
                burst_mean: 3,
                seed: 0xD001,
            },
            Benchmark::Swim => BenchmarkSpec {
                name: "swim".into(),
                pattern: single(vec![c(1.0, 1, 4)], 0.35, 2),
                gap_mean: 6,
                write_fraction: 0.20,
                dependent_fraction: 0.15,
                burst_mean: 3,
                seed: 0xD002,
            },
            Benchmark::Mesa => BenchmarkSpec {
                name: "mesa".into(),
                pattern: single(vec![c(1.0, 4, 8)], 0.55, 4),
                gap_mean: 10,
                write_fraction: 0.10,
                dependent_fraction: 0.25,
                burst_mean: 3,
                seed: 0xD003,
            },
            // ---- Streaming (Fig. 3) ----------------------------------
            Benchmark::Applu => BenchmarkSpec {
                name: "applu".into(),
                pattern: Pattern::Streaming,
                gap_mean: 6,
                write_fraction: 0.15,
                dependent_fraction: 0.1,
                burst_mean: 3,
                seed: 0xE001,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Baseline associativity: mean demand above it ⇔ app-level demand
    /// above the 1 MB slice.
    const A_BASELINE: f64 = 16.0;

    #[test]
    fn class_membership_matches_table6() {
        use AppClass::*;
        let expect = [
            (Benchmark::Ammp, A),
            (Benchmark::Parser, A),
            (Benchmark::Vortex, A),
            (Benchmark::Apsi, B),
            (Benchmark::Gcc, B),
            (Benchmark::Vpr, C),
            (Benchmark::Art, C),
            (Benchmark::Mcf, C),
            (Benchmark::Bzip2, C),
            (Benchmark::Gzip, D),
            (Benchmark::Swim, D),
            (Benchmark::Mesa, D),
            (Benchmark::Applu, Streaming),
        ];
        for (b, c) in expect {
            assert_eq!(b.class(), c, "{}", b.name());
        }
    }

    #[test]
    fn class_a_and_c_exceed_one_megabyte() {
        for b in Benchmark::ALL {
            let mean = b.spec().mean_demand();
            match b.class() {
                AppClass::A | AppClass::C => {
                    assert!(
                        mean > A_BASELINE,
                        "{}: mean demand {mean} must be > 16",
                        b.name()
                    )
                }
                AppClass::B | AppClass::D => {
                    assert!(
                        mean < A_BASELINE,
                        "{}: mean demand {mean} must be < 16",
                        b.name()
                    )
                }
                AppClass::Streaming => assert!(mean <= 4.0),
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::from_name(b.name()), Some(b));
        }
        assert_eq!(Benchmark::from_name("quake"), None);
    }

    #[test]
    fn specs_have_distinct_seeds() {
        let mut seeds: Vec<u64> = Benchmark::ALL.iter().map(|b| b.spec().seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 13);
    }

    #[test]
    fn ammp_has_large_low_demand_fraction() {
        // Fig. 1: ~40 % of ammp's sets need only 1–4 blocks.
        let spec = Benchmark::Ammp.spec();
        let crate::model::Pattern::Pooled { phases, .. } = &spec.pattern else {
            panic!("ammp is pooled")
        };
        let demands = phases[0].profile.assign(1024, spec.seed);
        let low = demands.iter().filter(|&&d| d <= 4).count() as f64 / 1024.0;
        assert!((low - 0.38).abs() < 0.06, "low-demand fraction {low}");
    }
}
