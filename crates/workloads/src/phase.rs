//! Phase-change schedules: deterministic mid-run workload shifts.
//!
//! A [`PhaseSchedule`] is an ordered list of [`StreamShift`]s — at
//! frontier cycle `c`, re-parameterise the selected cores' streams
//! (demand scale, near-reuse fraction, streaming switch, profile swap;
//! see [`sim_mem::ShiftDirective`]). The simulator applies each shift at
//! the first frontier boundary at or past its cycle, so a shifted run is
//! deterministic across stepping interleavings.
//!
//! The paper's core claim is that SNUG's stage-based G/T relatching
//! *adapts*: after a shift, takers and givers swap roles and the next
//! identification stage re-latches them, where a statically configured
//! scheme keeps serving the stale assignment. A schedule is the scenario
//! axis that exercises exactly that — the stationary 21-combo sweep
//! never does.
//!
//! Schedules parse from the CLI's `--phase-shift` SPEC strings
//! (semicolon-separated shifts, `CYCLE:DIRECTIVE[@CORES]`) and render
//! back canonically; [`PhaseSchedule::fingerprint`] is that canonical
//! form, which the harness hashes into shifted runs' content keys.

use sim_mem::{ShiftDirective, StreamShift};

/// An ordered, deterministic schedule of mid-run workload shifts.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PhaseSchedule {
    shifts: Vec<StreamShift>,
}

impl PhaseSchedule {
    /// Build a schedule from shifts (sorted by cycle; same-cycle shifts
    /// keep their given order).
    pub fn new(mut shifts: Vec<StreamShift>) -> Self {
        assert!(
            !shifts.is_empty(),
            "a phase schedule needs at least one shift"
        );
        shifts.sort_by_key(|s| s.at_cycle);
        PhaseSchedule { shifts }
    }

    /// A single all-core shift — the common scenario shape.
    pub fn single(at_cycle: u64, directive: ShiftDirective) -> Self {
        PhaseSchedule::new(vec![StreamShift::all_cores(at_cycle, directive)])
    }

    /// Parse a semicolon-separated SPEC string, e.g.
    /// `"1800000:demand=200"` or `"1500000:near=10;2400000:profile=mcf@0"`.
    ///
    /// `profile=` names are validated against the modelled benchmarks
    /// here — the directive grammar lives in `sim-mem`, which cannot
    /// know them — because a stream quietly ignores a directive it
    /// cannot apply: a typo'd name would otherwise produce a "shifted"
    /// run (distinct content keys, rendered boundary events) whose
    /// workload never actually changed.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let shifts = spec
            .split(';')
            .map(str::trim)
            .filter(|part| !part.is_empty())
            .map(str::parse)
            .collect::<Result<Vec<StreamShift>, String>>()?;
        if shifts.is_empty() {
            return Err("empty phase-shift spec".into());
        }
        for shift in &shifts {
            if let ShiftDirective::Profile { name } = &shift.directive {
                if crate::spec::Benchmark::from_name(name).is_none() {
                    return Err(format!(
                        "`profile={name}`: unknown benchmark (the modelled benchmarks are \
                         {})",
                        crate::spec::Benchmark::ALL
                            .iter()
                            .map(|b| b.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ));
                }
            }
        }
        Ok(PhaseSchedule::new(shifts))
    }

    /// The shifts in cycle order.
    pub fn shifts(&self) -> &[StreamShift] {
        &self.shifts
    }

    /// Number of shifts.
    pub fn len(&self) -> usize {
        self.shifts.len()
    }

    /// Whether the schedule holds no shifts (never true by
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.shifts.is_empty()
    }

    /// Canonical string form — stable under parse → render round trips,
    /// so it doubles as the content-key fragment for shifted runs.
    /// (The re-convergence phase boundaries are derived from the raw
    /// shifts by `sim_cmp::SessionBuilder::build`, the one place that
    /// knows the plan's window.)
    pub fn fingerprint(&self) -> String {
        self.to_string()
    }
}

impl std::fmt::Display for PhaseSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, shift) in self.shifts.iter().enumerate() {
            if i > 0 {
                f.write_str(";")?;
            }
            write!(f, "{shift}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for PhaseSchedule {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PhaseSchedule::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_sorts_and_round_trips() {
        let sched = PhaseSchedule::parse("2400000:near=10; 1_800_000:demand=200").unwrap();
        assert_eq!(sched.len(), 2);
        assert_eq!(sched.shifts()[0].at_cycle, 1_800_000, "sorted by cycle");
        let canon = sched.fingerprint();
        assert_eq!(canon, "1800000:demand=200;2400000:near=10");
        assert_eq!(canon.parse::<PhaseSchedule>().unwrap(), sched);
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(PhaseSchedule::parse("").is_err());
        assert!(PhaseSchedule::parse(";;").is_err());
        assert!(PhaseSchedule::parse("100:warp=9").is_err());
    }

    #[test]
    fn unknown_profile_names_are_rejected_at_parse_time() {
        // A typo'd benchmark would silently leave the workload
        // stationary while keying the run as shifted.
        let err = PhaseSchedule::parse("100:profile=mfc").unwrap_err();
        assert!(err.contains("unknown benchmark"), "{err}");
        assert!(PhaseSchedule::parse("100:profile=mcf").is_ok());
    }

    #[test]
    fn single_builds_an_all_core_shift() {
        let sched = PhaseSchedule::single(1_000, ShiftDirective::Streaming);
        assert_eq!(sched.shifts().len(), 1);
        assert!(sched.shifts()[0].cores.is_empty());
        assert_eq!(sched.fingerprint(), "1000:streaming");
    }
}
