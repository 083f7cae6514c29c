//! Mid-run workload shift directives.
//!
//! A phase-change scenario re-parameterises the op streams while a
//! simulation is running: at a scheduled cycle the workload's capacity
//! demand, reuse depth or reference pattern changes, and the adaptive
//! L2 organisations must re-learn their policy state. The directive
//! types live here — next to [`crate::OpStream`], whose
//! [`crate::OpStream::apply_shift`] hook concrete streams implement —
//! so the simulator can deliver shifts without depending on any
//! particular workload model. A [`StreamShift`] is plain, cloneable
//! data the session applies at frontier boundaries.

/// What changes when a shift fires. Interpreted by the concrete stream;
/// generators that do not understand a directive ignore it (see
/// [`crate::OpStream::apply_shift`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ShiftDirective {
    /// Scale the per-set capacity demand to `percent` % of its current
    /// value (200 doubles every set's working set, 50 halves it) —
    /// givers become takers and vice versa.
    DemandScale {
        /// New demand as a percentage of the current demand.
        percent: u32,
    },
    /// Set the near-reuse fraction to `percent` % (0–100): how many
    /// references re-touch recently used blocks at shallow LRU depth.
    NearFraction {
        /// New near-reuse fraction in percent.
        percent: u32,
    },
    /// Switch the reference pattern to pure streaming (sequential
    /// blocks, never revisited): the stream stops rewarding any cached
    /// capacity at all.
    Streaming,
    /// Swap the stream's generator model for the named benchmark's
    /// (demand profile, reuse mixture, timing behaviour). The stream
    /// keeps its original label so results stay attributable.
    Profile {
        /// Benchmark name as the workload crate spells it ("mcf").
        name: String,
    },
}

impl std::fmt::Display for ShiftDirective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShiftDirective::DemandScale { percent } => write!(f, "demand={percent}"),
            ShiftDirective::NearFraction { percent } => write!(f, "near={percent}"),
            ShiftDirective::Streaming => write!(f, "streaming"),
            ShiftDirective::Profile { name } => write!(f, "profile={name}"),
        }
    }
}

impl std::str::FromStr for ShiftDirective {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (kind, value) = match s.split_once('=') {
            Some((k, v)) => (k.trim(), Some(v.trim())),
            None => (s.trim(), None),
        };
        let percent = |v: Option<&str>, flag: &str, max: u32| -> Result<u32, String> {
            let v = v.ok_or_else(|| format!("`{flag}` needs a value, e.g. `{flag}=200`"))?;
            let p: u32 = v
                .parse()
                .map_err(|_| format!("`{v}` is not a percentage"))?;
            if p > max {
                return Err(format!("`{flag}={p}` is out of range (max {max})"));
            }
            Ok(p)
        };
        match kind {
            "demand" => Ok(ShiftDirective::DemandScale {
                percent: percent(value, "demand", 10_000)?,
            }),
            "near" => Ok(ShiftDirective::NearFraction {
                percent: percent(value, "near", 100)?,
            }),
            "streaming" if value.is_none() => Ok(ShiftDirective::Streaming),
            "profile" => Ok(ShiftDirective::Profile {
                name: value
                    .filter(|v| !v.is_empty())
                    .ok_or("`profile` needs a benchmark name, e.g. `profile=mcf`")?
                    .to_string(),
            }),
            other => Err(format!(
                "unknown shift directive `{other}` (expected demand=P, near=P, \
                 streaming or profile=NAME)"
            )),
        }
    }
}

/// One scheduled mid-run re-parameterisation: at frontier cycle
/// `at_cycle`, apply `directive` to the streams of `cores` (empty =
/// every core).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StreamShift {
    /// Absolute frontier cycle the shift fires at.
    pub at_cycle: u64,
    /// Target cores (empty = all).
    pub cores: Vec<usize>,
    /// The re-parameterisation to apply.
    pub directive: ShiftDirective,
}

impl StreamShift {
    /// A shift applying to every core.
    pub fn all_cores(at_cycle: u64, directive: ShiftDirective) -> Self {
        StreamShift {
            at_cycle,
            cores: Vec::new(),
            directive,
        }
    }

    /// Whether this shift targets `core`.
    pub fn targets(&self, core: usize) -> bool {
        self.cores.is_empty() || self.cores.contains(&core)
    }
}

impl std::fmt::Display for StreamShift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.at_cycle, self.directive)?;
        if !self.cores.is_empty() {
            let cores = self
                .cores
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(",");
            write!(f, "@{cores}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for StreamShift {
    type Err = String;

    /// Parse `CYCLE:DIRECTIVE[@CORE[,CORE]...]`, e.g.
    /// `1800000:demand=200` or `1800000:profile=mcf@0,2`. Underscores in
    /// the cycle are ignored (`1_800_000`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (cycle, rest) = s
            .split_once(':')
            .ok_or_else(|| format!("shift `{s}` must be CYCLE:DIRECTIVE[@CORES]"))?;
        let at_cycle = cycle
            .trim()
            .replace('_', "")
            .parse::<u64>()
            .map_err(|_| format!("`{cycle}` is not a cycle count"))?;
        let (directive, cores) = match rest.split_once('@') {
            Some((d, cores)) => {
                let mut parsed = Vec::new();
                for part in cores.split(',') {
                    parsed.push(
                        part.trim()
                            .parse::<usize>()
                            .map_err(|_| format!("`{part}` is not a core index"))?,
                    );
                }
                parsed.sort_unstable();
                parsed.dedup();
                (d, parsed)
            }
            None => (rest, Vec::new()),
        };
        Ok(StreamShift {
            at_cycle,
            cores,
            directive: directive.parse()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directives_round_trip_through_display() {
        for text in ["demand=200", "near=30", "streaming", "profile=mcf"] {
            let d: ShiftDirective = text.parse().unwrap();
            assert_eq!(d.to_string(), text);
        }
    }

    #[test]
    fn bad_directives_are_rejected() {
        assert!("demand".parse::<ShiftDirective>().is_err());
        assert!("near=101".parse::<ShiftDirective>().is_err());
        assert!("streaming=1".parse::<ShiftDirective>().is_err());
        assert!("profile=".parse::<ShiftDirective>().is_err());
        assert!("warp=9".parse::<ShiftDirective>().is_err());
    }

    #[test]
    fn shifts_round_trip_and_normalise_cores() {
        let s: StreamShift = "1_800_000:demand=200".parse().unwrap();
        assert_eq!(s.at_cycle, 1_800_000);
        assert!(s.cores.is_empty());
        assert!(s.targets(0) && s.targets(3));
        assert_eq!(s.to_string(), "1800000:demand=200");

        let s: StreamShift = "500:profile=mcf@2,0,2".parse().unwrap();
        assert_eq!(s.cores, vec![0, 2], "sorted, deduped");
        assert!(s.targets(0) && !s.targets(1));
        assert_eq!(s.to_string(), "500:profile=mcf@0,2");
        assert_eq!(s, s.to_string().parse().unwrap());
    }

    #[test]
    fn malformed_shifts_are_rejected() {
        assert!("demand=200".parse::<StreamShift>().is_err(), "no cycle");
        assert!("x:demand=200".parse::<StreamShift>().is_err());
        assert!("100:demand=200@a".parse::<StreamShift>().is_err());
    }
}
