//! Scheme specification and construction — the five L2 organisations of
//! the paper's §4.1 behind one factory.
//!
//! [`SchemeSpec`] is the single parse/print path for scheme names:
//! `Display` renders the paper's figure labels (`L2P`, `CC(50%)`, …) and
//! [`FromStr`] parses both those labels and the store's compact job
//! labels (`l2p`, `cc@50%`, …), so CLI arguments, report headers and
//! store audits all agree on one vocabulary.

use crate::{Cc, Dsr, DsrConfig, L2p, L2s, Snug, SnugConfig};
use sim_cache::CacheStats;
use sim_cmp::{ChipResources, L2Org, L2Outcome, SchemeEvent, SystemConfig};
use sim_mem::BlockAddr;
use std::fmt;
use std::str::FromStr;

/// Which organisation to build, with its policy parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchemeSpec {
    /// Private baseline.
    L2p,
    /// Shared, address-interleaved.
    L2s,
    /// Cooperative Caching with a spill probability in [0, 1].
    Cc {
        /// Probability of spilling a clean owned victim.
        spill_probability: f64,
    },
    /// Dynamic Spill-Receive.
    Dsr(DsrConfig),
    /// Set-level Non-Uniformity identifier and Grouper.
    Snug(SnugConfig),
}

/// The display name used in the paper's figures, e.g. `CC(50%)`.
impl fmt::Display for SchemeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemeSpec::L2p => write!(f, "L2P"),
            SchemeSpec::L2s => write!(f, "L2S"),
            SchemeSpec::Cc { spill_probability } => {
                write!(f, "CC({:.0}%)", spill_probability * 100.0)
            }
            SchemeSpec::Dsr(_) => write!(f, "DSR"),
            SchemeSpec::Snug(_) => write!(f, "SNUG"),
        }
    }
}

/// Parse a scheme name: the figure labels (`L2P`, `CC(50%)`) and the
/// store job labels (`l2p`, `cc@50%`) both round-trip, case-insensitive.
/// DSR and SNUG parse to their paper parameters (a parsed spec names the
/// *scheme*; run configurations supply tuned parameters separately).
impl FromStr for SchemeSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.trim().to_ascii_lowercase();
        match lower.as_str() {
            "l2p" => return Ok(SchemeSpec::L2p),
            "l2s" => return Ok(SchemeSpec::L2s),
            "dsr" => return Ok(SchemeSpec::Dsr(DsrConfig::paper())),
            "snug" => return Ok(SchemeSpec::Snug(SnugConfig::paper())),
            _ => {}
        }
        // `cc@50%` (store label) or `cc(50%)` (figure label).
        let percent = lower
            .strip_prefix("cc@")
            .or_else(|| lower.strip_prefix("cc(").and_then(|r| r.strip_suffix(')')));
        if let Some(percent) = percent {
            let digits = percent.strip_suffix('%').unwrap_or(percent);
            let value: f64 = digits
                .parse()
                .map_err(|_| format!("bad CC spill probability `{digits}` in `{s}`"))?;
            if !(0.0..=100.0).contains(&value) {
                return Err(format!("CC spill probability `{digits}%` outside 0–100%"));
            }
            return Ok(SchemeSpec::Cc {
                spill_probability: value / 100.0,
            });
        }
        Err(format!(
            "unknown scheme `{s}` (expected L2P, L2S, CC(<p>%), cc@<p>%, DSR or SNUG)"
        ))
    }
}

impl SchemeSpec {
    /// Construct the organisation. The returned [`AnyOrg`] dispatches
    /// by `match` instead of vtable, which lets the compiler inline the
    /// per-access scheme code into the session hot loop.
    pub fn build_any(&self, cfg: SystemConfig) -> AnyOrg {
        match *self {
            SchemeSpec::L2p => AnyOrg::L2p(L2p::new(cfg)),
            SchemeSpec::L2s => AnyOrg::L2s(L2s::new(cfg)),
            SchemeSpec::Cc { spill_probability } => AnyOrg::Cc(Cc::new(cfg, spill_probability)),
            SchemeSpec::Dsr(d) => AnyOrg::Dsr(Dsr::new(cfg, d)),
            SchemeSpec::Snug(s) => AnyOrg::Snug(Snug::new(cfg, s)),
        }
    }

    /// The spill probabilities the paper sweeps for CC(Best) (§4.1).
    pub const CC_SPILL_SWEEP: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
}

/// The five paper schemes behind one concrete, `match`-dispatched type.
///
/// A closed enum rather than `Box<dyn L2Org>`: dispatch compiles to a
/// jump table and each scheme's access path can inline into the session
/// hot loop, instead of an indirect call per L1 miss.
#[derive(Clone)]
pub enum AnyOrg {
    /// Private baseline.
    L2p(L2p),
    /// Shared, address-interleaved.
    L2s(L2s),
    /// Cooperative Caching.
    Cc(Cc),
    /// Dynamic Spill-Receive.
    Dsr(Dsr),
    /// Set-level Non-Uniformity identifier and Grouper.
    Snug(Snug),
}

impl AnyOrg {
    /// The inner [`Cc`], if this is the CC scheme (the shared-warm-up
    /// sweep retunes its spill probability in place).
    pub fn as_cc_mut(&mut self) -> Option<&mut Cc> {
        match self {
            AnyOrg::Cc(cc) => Some(cc),
            _ => None,
        }
    }
}

impl L2Org for AnyOrg {
    fn access(
        &mut self,
        core: usize,
        block: BlockAddr,
        is_write: bool,
        now: u64,
        res: &mut ChipResources<'_>,
    ) -> L2Outcome {
        match self {
            AnyOrg::L2p(o) => o.access(core, block, is_write, now, res),
            AnyOrg::L2s(o) => o.access(core, block, is_write, now, res),
            AnyOrg::Cc(o) => o.access(core, block, is_write, now, res),
            AnyOrg::Dsr(o) => o.access(core, block, is_write, now, res),
            AnyOrg::Snug(o) => o.access(core, block, is_write, now, res),
        }
    }

    fn writeback(&mut self, core: usize, block: BlockAddr, now: u64, res: &mut ChipResources<'_>) {
        match self {
            AnyOrg::L2p(o) => o.writeback(core, block, now, res),
            AnyOrg::L2s(o) => o.writeback(core, block, now, res),
            AnyOrg::Cc(o) => o.writeback(core, block, now, res),
            AnyOrg::Dsr(o) => o.writeback(core, block, now, res),
            AnyOrg::Snug(o) => o.writeback(core, block, now, res),
        }
    }

    fn slice_stats(&self, core: usize) -> &CacheStats {
        match self {
            AnyOrg::L2p(o) => o.slice_stats(core),
            AnyOrg::L2s(o) => o.slice_stats(core),
            AnyOrg::Cc(o) => o.slice_stats(core),
            AnyOrg::Dsr(o) => o.slice_stats(core),
            AnyOrg::Snug(o) => o.slice_stats(core),
        }
    }

    fn num_cores(&self) -> usize {
        match self {
            AnyOrg::L2p(o) => o.num_cores(),
            AnyOrg::L2s(o) => o.num_cores(),
            AnyOrg::Cc(o) => o.num_cores(),
            AnyOrg::Dsr(o) => o.num_cores(),
            AnyOrg::Snug(o) => o.num_cores(),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            AnyOrg::L2p(o) => o.name(),
            AnyOrg::L2s(o) => o.name(),
            AnyOrg::Cc(o) => o.name(),
            AnyOrg::Dsr(o) => o.name(),
            AnyOrg::Snug(o) => o.name(),
        }
    }

    fn reset_stats(&mut self) {
        match self {
            AnyOrg::L2p(o) => o.reset_stats(),
            AnyOrg::L2s(o) => o.reset_stats(),
            AnyOrg::Cc(o) => o.reset_stats(),
            AnyOrg::Dsr(o) => o.reset_stats(),
            AnyOrg::Snug(o) => o.reset_stats(),
        }
    }

    fn clone_dyn(&self) -> Box<dyn L2Org> {
        match self {
            AnyOrg::L2p(o) => o.clone_dyn(),
            AnyOrg::L2s(o) => o.clone_dyn(),
            AnyOrg::Cc(o) => o.clone_dyn(),
            AnyOrg::Dsr(o) => o.clone_dyn(),
            AnyOrg::Snug(o) => o.clone_dyn(),
        }
    }

    fn drain_events(&mut self) -> Vec<SchemeEvent> {
        match self {
            AnyOrg::L2p(o) => o.drain_events(),
            AnyOrg::L2s(o) => o.drain_events(),
            AnyOrg::Cc(o) => o.drain_events(),
            AnyOrg::Dsr(o) => o.drain_events(),
            AnyOrg::Snug(o) => o.drain_events(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper() {
        assert_eq!(SchemeSpec::L2p.to_string(), "L2P");
        assert_eq!(SchemeSpec::L2s.to_string(), "L2S");
        assert_eq!(
            SchemeSpec::Cc {
                spill_probability: 0.5
            }
            .to_string(),
            "CC(50%)"
        );
        assert_eq!(SchemeSpec::Dsr(DsrConfig::paper()).to_string(), "DSR");
        assert_eq!(SchemeSpec::Snug(SnugConfig::paper()).to_string(), "SNUG");
    }

    #[test]
    fn parse_accepts_figure_and_store_labels() {
        for (text, expected) in [
            ("L2P", SchemeSpec::L2p),
            ("l2p", SchemeSpec::L2p),
            ("L2S", SchemeSpec::L2s),
            ("DSR", SchemeSpec::Dsr(DsrConfig::paper())),
            ("snug", SchemeSpec::Snug(SnugConfig::paper())),
            (
                "CC(50%)",
                SchemeSpec::Cc {
                    spill_probability: 0.5,
                },
            ),
            (
                "cc@25%",
                SchemeSpec::Cc {
                    spill_probability: 0.25,
                },
            ),
            (
                "cc@100",
                SchemeSpec::Cc {
                    spill_probability: 1.0,
                },
            ),
        ] {
            assert_eq!(text.parse::<SchemeSpec>().unwrap(), expected, "{text}");
        }
    }

    #[test]
    fn parse_round_trips_display() {
        for spec in [
            SchemeSpec::L2p,
            SchemeSpec::L2s,
            SchemeSpec::Cc {
                spill_probability: 0.75,
            },
            SchemeSpec::Dsr(DsrConfig::paper()),
            SchemeSpec::Snug(SnugConfig::paper()),
        ] {
            assert_eq!(spec.to_string().parse::<SchemeSpec>().unwrap(), spec);
        }
    }

    #[test]
    fn parse_rejects_nonsense() {
        assert!("l3".parse::<SchemeSpec>().is_err());
        assert!("cc@".parse::<SchemeSpec>().is_err());
        assert!("cc@150%".parse::<SchemeSpec>().is_err());
        assert!("cc(half)".parse::<SchemeSpec>().is_err());
    }

    #[test]
    fn build_produces_working_orgs() {
        let cfg = SystemConfig::tiny_test();
        for spec in [
            SchemeSpec::L2p,
            SchemeSpec::L2s,
            SchemeSpec::Cc {
                spill_probability: 1.0,
            },
            SchemeSpec::Dsr(DsrConfig::tiny()),
            SchemeSpec::Snug(SnugConfig::scaled(1000)),
        ] {
            let org = spec.build_any(cfg);
            assert_eq!(org.num_cores(), 4);
        }
    }

    #[test]
    fn sweep_covers_paper_probabilities() {
        assert_eq!(SchemeSpec::CC_SPILL_SWEEP.len(), 5);
        assert_eq!(SchemeSpec::CC_SPILL_SWEEP[0], 0.0);
        assert_eq!(SchemeSpec::CC_SPILL_SWEEP[4], 1.0);
    }
}
