//! Declarative sweep specifications.
//!
//! A [`SweepSpec`] names *what* to run — workload classes × the five
//! schemes × a run budget — and expands into concrete [`UnitJob`]s, one
//! per *(combo, scheme point)* simulation, each carrying the content
//! key that addresses its result in the store. The CLI builds specs
//! from flags; they also round-trip through JSON
//! (`snug sweep --spec file.json`).

use crate::codec::JsonCodec;
use crate::hash::{
    content_key, content_key_split, fnv1a64, fnv1a64_fan, fnv1a64_rev_from, key_hex, FNV_OFFSET,
};
use crate::json::{JsonError, Value};
use snug_experiments::{CompareConfig, RunPlan, SchemePoint};
use snug_workloads::{all_combos, Combo, ComboClass, PhaseSchedule};

/// Version prefix baked into every job key: bump when the simulators or
/// the stored schema change meaning, and old cache entries stop
/// matching instead of silently serving stale results.
///
/// v2 keys address one *(combo, scheme point)* simulation and hash only
/// the inputs that simulation depends on; see [`unit_key`].
pub const SCHEMA_VERSION: &str = "snug-harness/v2";

/// Which run budget (and matching SNUG stage lengths) a sweep uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BudgetPreset {
    /// `CompareConfig::quick` — tests and smoke sweeps.
    Quick,
    /// `CompareConfig::mid` — the calibrated CI-fast paper evaluation.
    Mid,
    /// `CompareConfig::default_eval` — the paper-scale evaluation.
    Eval,
    /// Custom warm-up/measure cycles on top of the quick stage lengths.
    Custom {
        /// Unmeasured warm-up cycles.
        warmup_cycles: u64,
        /// Measured cycles.
        measure_cycles: u64,
    },
}

impl BudgetPreset {
    /// The full comparison configuration for this preset.
    pub fn compare_config(&self) -> CompareConfig {
        match *self {
            BudgetPreset::Quick => CompareConfig::quick(),
            BudgetPreset::Mid => CompareConfig::mid(),
            BudgetPreset::Eval => CompareConfig::default_eval(),
            BudgetPreset::Custom {
                warmup_cycles,
                measure_cycles,
            } => {
                let mut cfg = CompareConfig::quick();
                cfg.plan = RunPlan::fixed(warmup_cycles, measure_cycles);
                cfg
            }
        }
    }

    /// Short display name.
    pub fn label(&self) -> String {
        match self {
            BudgetPreset::Quick => "quick".into(),
            BudgetPreset::Mid => "mid".into(),
            BudgetPreset::Eval => "eval".into(),
            BudgetPreset::Custom {
                warmup_cycles,
                measure_cycles,
            } => {
                format!("custom({warmup_cycles}+{measure_cycles})")
            }
        }
    }
}

/// How a sweep's runs stop: at the fixed budget horizon, or early on
/// measured-throughput convergence (`snug sweep --until-converged`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopPreset {
    /// Run the full measured window — the canonical methodology every
    /// committed store entry uses.
    Fixed,
    /// Stop once the rolling-window throughput stabilises; the budget
    /// becomes the ceiling. Converged runs are keyed separately from
    /// fixed runs (the plan fingerprint carries the policy), so the
    /// canonical store is never polluted.
    Converged {
        /// Sample-window length in cycles
        /// (`snug_experiments::default_window` of the budget when
        /// `None` — a tenth of the measured ceiling).
        window_cycles: Option<u64>,
        /// Relative spread threshold
        /// ([`snug_experiments::DEFAULT_REL_EPSILON`] when `None`).
        rel_epsilon: Option<f64>,
    },
    /// Stop once throughput has *re*-stabilised after the workload's
    /// last scheduled phase shift (`snug sweep --until-reconverged`,
    /// meant to pair with `--phase-shift`; without shifts it behaves as
    /// plain convergence). Keyed separately from both fixed and
    /// converged runs.
    Reconverged {
        /// Sample-window length in cycles (defaults as for
        /// [`StopPreset::Converged`]).
        window_cycles: Option<u64>,
        /// Relative spread threshold (defaults as for
        /// [`StopPreset::Converged`]).
        rel_epsilon: Option<f64>,
    },
}

impl StopPreset {
    /// Apply this preset to a budget's comparison configuration.
    pub fn apply(&self, cfg: CompareConfig) -> CompareConfig {
        match *self {
            StopPreset::Fixed => cfg,
            StopPreset::Converged {
                window_cycles,
                rel_epsilon,
            } => cfg.until_converged(window_cycles, rel_epsilon),
            StopPreset::Reconverged {
                window_cycles,
                rel_epsilon,
            } => cfg.until_reconverged(window_cycles, rel_epsilon),
        }
    }
}

/// A declarative sweep: combos (by class) × schemes × budget.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Human-readable sweep name (used in report headers).
    pub name: String,
    /// Classes to run; empty means all six (the full Table 8).
    pub classes: Vec<ComboClass>,
    /// Specific combo labels (e.g. `"ammp+parser+swim+mesa"`) to
    /// restrict to, applied on top of the class filter; empty means no
    /// restriction.
    pub combos: Vec<String>,
    /// The run budget.
    pub budget: BudgetPreset,
    /// The stop policy: fixed horizon or convergence-based early exit.
    pub stop: StopPreset,
    /// Canonical phase-change schedule spec (`--phase-shift`): the
    /// per-core streams re-parameterise mid-run at the scheduled
    /// cycles. `None` is the stationary canonical workload; a schedule
    /// re-keys every unit (the workload itself is different), so
    /// shifted runs never collide with canonical entries. Must be a
    /// valid schedule in [`PhaseSchedule::fingerprint`] form — the CLI
    /// and JSON paths validate and canonicalise on entry; code setting
    /// the field directly owns that contract
    /// ([`SweepSpec::phase_schedule`] panics on a string that does not
    /// parse).
    pub phase_shift: Option<String>,
}

impl SweepSpec {
    /// A sweep over everything at the given budget, fixed stop.
    pub fn full(budget: BudgetPreset) -> Self {
        SweepSpec {
            name: "full".into(),
            classes: Vec::new(),
            combos: Vec::new(),
            budget,
            stop: StopPreset::Fixed,
            phase_shift: None,
        }
    }

    /// Display label covering budget, stop policy and workload shifts
    /// ("mid", "mid+converged", "mid+shifted+reconverged").
    pub fn budget_label(&self) -> String {
        let shifted = if self.phase_shift.is_some() {
            "+shifted"
        } else {
            ""
        };
        match self.stop {
            StopPreset::Fixed => format!("{}{shifted}", self.budget.label()),
            StopPreset::Converged { .. } => format!("{}{shifted}+converged", self.budget.label()),
            StopPreset::Reconverged { .. } => {
                format!("{}{shifted}+reconverged", self.budget.label())
            }
        }
    }

    /// The parsed phase schedule, if any.
    ///
    /// # Panics
    ///
    /// Panics if the stored spec string does not parse — specs built by
    /// the CLI are canonicalised at parse time, so this only trips on a
    /// hand-edited JSON spec, which `from_json` already rejects.
    #[expect(
        clippy::expect_used,
        reason = "documented # Panics: specs are canonicalised at parse time and from_json rejects bad schedules"
    )]
    pub fn phase_schedule(&self) -> Option<PhaseSchedule> {
        self.phase_shift
            .as_deref()
            .map(|s| PhaseSchedule::parse(s).expect("spec carries a valid phase schedule"))
    }

    /// The combos this spec selects, in Table 8 order.
    pub fn combos(&self) -> Vec<Combo> {
        all_combos()
            .into_iter()
            .filter(|c| self.classes.is_empty() || self.classes.contains(&c.class))
            .filter(|c| self.combos.is_empty() || self.combos.contains(&c.label()))
            .collect()
    }

    /// The comparison configuration every job runs under: the budget's
    /// configuration with the stop preset applied to its plan.
    pub fn compare_config(&self) -> CompareConfig {
        self.stop.apply(self.budget.compare_config())
    }

    /// Expand into per-(combo, scheme point) unit jobs with content
    /// keys, grouped per combo in Table 8 order.
    pub fn combo_jobs(&self) -> Vec<ComboJob> {
        let config = self.compare_config();
        let phase = self.phase_schedule();
        let keyed = KeyedPoints::new(&config, phase.as_ref());
        self.combos()
            .into_iter()
            .map(|combo| ComboJob {
                units: keyed.unit_jobs(&combo),
                combo,
                config,
            })
            .collect()
    }

    /// Every unit job of the spec, flattened in run order.
    pub fn unit_jobs(&self) -> Vec<UnitJob> {
        self.combo_jobs()
            .into_iter()
            .flat_map(|c| c.units)
            .collect()
    }
}

impl JsonCodec for SweepSpec {
    fn to_json(&self) -> Value {
        let SweepSpec {
            name,
            classes,
            combos,
            budget,
            stop,
            phase_shift,
        } = self;
        let budget = match *budget {
            BudgetPreset::Quick => Value::str("quick"),
            BudgetPreset::Mid => Value::str("mid"),
            BudgetPreset::Eval => Value::str("eval"),
            BudgetPreset::Custom {
                warmup_cycles,
                measure_cycles,
            } => Value::obj(vec![
                ("warmup_cycles", Value::num(warmup_cycles as f64)),
                ("measure_cycles", Value::num(measure_cycles as f64)),
            ]),
        };
        let mut fields = vec![
            ("name", Value::str(name)),
            (
                "classes",
                Value::Arr(classes.iter().map(JsonCodec::to_json).collect()),
            ),
            (
                "combos",
                Value::Arr(combos.iter().map(|s| Value::str(s.as_str())).collect()),
            ),
            ("budget", budget),
        ];
        if let Some(spec) = phase_shift {
            fields.push(("phase_shift", Value::str(spec)));
        }
        match *stop {
            StopPreset::Fixed => {}
            StopPreset::Converged {
                window_cycles,
                rel_epsilon,
            } => {
                fields.push(("until_converged", stop_params(window_cycles, rel_epsilon)));
            }
            StopPreset::Reconverged {
                window_cycles,
                rel_epsilon,
            } => {
                fields.push(("until_reconverged", stop_params(window_cycles, rel_epsilon)));
            }
        }
        Value::obj(fields)
    }

    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let budget = match v.get("budget")? {
            Value::Str(s) if s == "quick" => BudgetPreset::Quick,
            Value::Str(s) if s == "mid" => BudgetPreset::Mid,
            Value::Str(s) if s == "eval" => BudgetPreset::Eval,
            custom @ Value::Obj(_) => BudgetPreset::Custom {
                warmup_cycles: custom.get("warmup_cycles")?.as_num()? as u64,
                measure_cycles: custom.get("measure_cycles")?.as_num()? as u64,
            },
            other => return Err(JsonError(format!("bad budget: {other:?}"))),
        };
        // `combos` is optional in the JSON form (older specs omit it).
        let combos = match v.get("combos") {
            Ok(list) => list
                .as_arr()?
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect::<Result<Vec<_>, _>>()?,
            Err(_) => Vec::new(),
        };
        // Specs written before the shared-warm-up variant was removed
        // carry `"shared_warmup": false`, which is the only semantics
        // left; `true` asked for a variant that no longer exists.
        if let Ok(flag) = v.get("shared_warmup") {
            if flag.as_bool()? {
                return Err(JsonError(
                    "shared_warmup: the shared-warm-up variant was removed; \
                     drop the field to run the canonical per-point sweep"
                        .into(),
                ));
            }
        }
        // The stop presets are optional too: absent means the fixed
        // stop policy every pre-plan spec used.
        let stop = match (v.get("until_converged"), v.get("until_reconverged")) {
            (Ok(_), Ok(_)) => {
                return Err(JsonError(
                    "a spec cannot carry both until_converged and until_reconverged".into(),
                ))
            }
            (Ok(obj), Err(_)) => {
                let (window_cycles, rel_epsilon) = parse_stop_params(obj)?;
                StopPreset::Converged {
                    window_cycles,
                    rel_epsilon,
                }
            }
            (Err(_), Ok(obj)) => {
                let (window_cycles, rel_epsilon) = parse_stop_params(obj)?;
                StopPreset::Reconverged {
                    window_cycles,
                    rel_epsilon,
                }
            }
            (Err(_), Err(_)) => StopPreset::Fixed,
        };
        // `phase_shift` is optional: absent means the stationary
        // canonical workload. The stored string is validated and
        // canonicalised on load so bad hand-written specs fail here,
        // not mid-sweep.
        let phase_shift = match v.get("phase_shift") {
            Ok(spec) => Some(
                PhaseSchedule::parse(spec.as_str()?)
                    .map_err(|e| JsonError(format!("phase_shift: {e}")))?
                    .fingerprint(),
            ),
            Err(_) => None,
        };
        Ok(SweepSpec {
            name: v.get("name")?.as_str()?.to_string(),
            classes: v
                .get("classes")?
                .as_arr()?
                .iter()
                .map(ComboClass::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            combos,
            budget,
            stop,
            phase_shift,
        })
    }
}

/// Render a stop preset's optional tuning knobs.
fn stop_params(window_cycles: Option<u64>, rel_epsilon: Option<f64>) -> Value {
    let mut stop = Vec::new();
    if let Some(w) = window_cycles {
        stop.push(("window_cycles", Value::num(w as f64)));
    }
    if let Some(e) = rel_epsilon {
        stop.push(("rel_epsilon", Value::num(e)));
    }
    Value::obj(stop)
}

/// Decode a stop preset's optional tuning knobs, rejecting the values
/// the `--window`/`--rel-eps` flags reject: a window below one cycle or
/// a negative epsilon.
fn parse_stop_params(obj: &Value) -> Result<(Option<u64>, Option<f64>), JsonError> {
    let window_cycles = match obj.get("window_cycles") {
        Ok(w) => {
            let w = w.as_num()?;
            if w < 1.0 {
                return Err(JsonError(format!(
                    "window_cycles must be at least 1, got {w}"
                )));
            }
            Some(w as u64)
        }
        Err(_) => None,
    };
    let rel_epsilon = match obj.get("rel_epsilon") {
        Ok(e) => {
            let e = e.as_num()?;
            if e < 0.0 {
                return Err(JsonError(format!(
                    "rel_epsilon must be non-negative, got {e}"
                )));
            }
            Some(e)
        }
        Err(_) => None,
    };
    Ok((window_cycles, rel_epsilon))
}

/// One unit job: run a single scheme point on one combo — the cache
/// granularity of the store.
#[derive(Debug, Clone)]
pub struct UnitJob {
    /// Content key addressing this job's result in the store.
    pub key: String,
    /// The workload combination.
    pub combo: Combo,
    /// The scheme point to simulate.
    pub point: SchemePoint,
    /// The full comparison configuration (the key only covers the parts
    /// this point depends on).
    pub config: CompareConfig,
    /// The phase-change schedule this job's workload runs under
    /// (`None`: stationary canonical workload; baked into the key).
    pub phase: Option<PhaseSchedule>,
}

impl UnitJob {
    /// Display label: `"ammp+parser+swim+mesa [cc@50%]"`.
    pub fn label(&self) -> String {
        format!("{} [{}]", self.combo.label(), self.point.label())
    }
}

/// One combo's unit jobs (all of [`SchemePoint::all`]) plus the shared
/// configuration — what a sweep assembles back into a `ComboResult`.
#[derive(Debug, Clone)]
pub struct ComboJob {
    /// The workload combination.
    pub combo: Combo,
    /// The full comparison configuration.
    pub config: CompareConfig,
    /// The combo's unit jobs in run order.
    pub units: Vec<UnitJob>,
}

/// The unit jobs of one combo under one configuration, optionally
/// under a phase-change schedule (which re-keys every unit — the
/// workload is different).
pub fn unit_jobs_for(
    combo: &Combo,
    config: &CompareConfig,
    phase: Option<&PhaseSchedule>,
) -> Vec<UnitJob> {
    KeyedPoints::new(config, phase).unit_jobs(combo)
}

/// Every scheme point of one (configuration, phase) expansion with the
/// key input it shares across combos. A unit key hashes
/// `{key_prefix}{suffix}`, where only the ~70-byte prefix names the
/// combo and the ~1 KB suffix — the point, platform `Debug` string,
/// plan and parameter fingerprints and phase — is the same for every
/// combo. The reverse lane meets the suffix first, so its state after
/// the suffix is hashed once here; per unit it covers only the prefix.
struct KeyedPoints<'a> {
    config: &'a CompareConfig,
    phase: Option<&'a PhaseSchedule>,
    /// [`SchemePoint::all`].
    points: Vec<SchemePoint>,
    /// Each point's [`key_suffix`].
    suffixes: Vec<String>,
    /// Each suffix's reverse-lane state.
    reverse: Vec<u64>,
}

impl<'a> KeyedPoints<'a> {
    fn new(config: &'a CompareConfig, phase: Option<&'a PhaseSchedule>) -> Self {
        let system = format!("{:?}", config.system);
        let plan = config.plan.fingerprint();
        let phase_fragment = phase_fragment(phase);
        let points = SchemePoint::all();
        let suffixes: Vec<String> = points
            .iter()
            .map(|point| key_suffix(point, config, &system, &plan, &phase_fragment))
            .collect();
        KeyedPoints {
            config,
            phase,
            points,
            reverse: suffixes
                .iter()
                .map(|s| fnv1a64_rev_from(FNV_OFFSET, s.as_bytes()))
                .collect(),
            suffixes,
        }
    }

    /// One combo's unit jobs: the forward lane hashes the combo's
    /// prefix once and fans out over the nine suffixes; the reverse
    /// lane finishes each point's pre-hashed suffix state over the
    /// prefix.
    fn unit_jobs(&self, combo: &Combo) -> Vec<UnitJob> {
        let prefix = key_prefix(combo);
        let prefix = prefix.as_bytes();
        let forward = fnv1a64_fan(fnv1a64(prefix), &self.suffixes);
        self.points
            .iter()
            .zip(forward)
            .zip(&self.reverse)
            .map(|((point, forward), &reverse)| UnitJob {
                key: key_hex(forward, fnv1a64_rev_from(reverse, prefix)),
                combo: *combo,
                point: *point,
                config: *self.config,
                phase: self.phase.cloned(),
            })
            .collect()
    }
}

/// The part of a unit key's input that names the combo:
/// `{SCHEMA_VERSION}|{combo:?}|`.
fn key_prefix(combo: &Combo) -> String {
    format!("{SCHEMA_VERSION}|{combo:?}|")
}

/// The part of a unit key's input every combo shares:
/// `{point fragment}{phase}`.
fn key_suffix(
    point: &SchemePoint,
    config: &CompareConfig,
    system: &str,
    plan: &str,
    phase: &str,
) -> String {
    let mut suffix = point_fragment(point, config, system, plan);
    suffix.push_str(phase);
    suffix
}

/// The key input after the combo that one point shares across combos:
/// `{point:?}|{system:?}|{plan fingerprint}|{param fingerprint}`.
fn point_fragment(point: &SchemePoint, config: &CompareConfig, system: &str, plan: &str) -> String {
    format!(
        "{point:?}|{system}|{plan}|{}",
        point.param_fingerprint(config)
    )
}

/// The key suffix of a phase-change schedule; empty for the stationary
/// workload, keeping every pre-phase-schedule key byte-identical.
fn phase_fragment(phase: Option<&PhaseSchedule>) -> String {
    phase
        .map(|p| format!("|phase={}", p.fingerprint()))
        .unwrap_or_default()
}

/// The content key of one (combo, scheme point) simulation.
///
/// Hashes exactly the inputs that simulation depends on under
/// [`SCHEMA_VERSION`]: the combo, the point, the platform, the run
/// plan (via [`RunPlan::fingerprint`] — fixed plans render exactly as
/// the legacy `RunBudget` debug string, so pre-plan store entries keep
/// matching, while converged plans key separately), and — via
/// [`SchemePoint::param_fingerprint`] — the scheme's own parameters
/// only (`cfg.snug` for SNUG points, `cfg.dsr` for DSR points, nothing
/// extra for the rest). Editing one scheme's configuration therefore
/// invalidates only that scheme's cached jobs; every other point keeps
/// hitting. A phase-change schedule is part of the workload, so its
/// canonical fingerprint joins the key input; the stationary case
/// (`None`) contributes nothing, keeping every pre-phase-schedule key
/// byte-identical.
pub fn unit_key(
    combo: &Combo,
    point: &SchemePoint,
    config: &CompareConfig,
    phase: Option<&PhaseSchedule>,
) -> String {
    let suffix = key_suffix(
        point,
        config,
        &format!("{:?}", config.system),
        &config.plan.fingerprint(),
        &phase_fragment(phase),
    );
    content_key_split(key_prefix(combo).as_bytes(), suffix.as_bytes())
}

/// [`point_fragment`] for a one-off key, rendering the shared parts too.
fn single_point_fragment(point: &SchemePoint, config: &CompareConfig) -> String {
    point_fragment(
        point,
        config,
        &format!("{:?}", config.system),
        &config.plan.fingerprint(),
    )
}

/// The content key of a recorded time series (`snug trace`): the unit
/// key's inputs plus the probe stride (and any phase schedule), under a
/// distinct record tag so trace entries never collide with unit
/// results.
pub fn trace_key(
    combo: &Combo,
    point: &SchemePoint,
    config: &CompareConfig,
    stride: u64,
    phase: Option<&PhaseSchedule>,
) -> String {
    content_key(&format!(
        "{SCHEMA_VERSION}|trace|{combo:?}|{}|stride={stride}{}",
        single_point_fragment(point, config),
        phase_fragment(phase),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_class_list_selects_all_21_combos() {
        let spec = SweepSpec::full(BudgetPreset::Quick);
        assert_eq!(spec.combo_jobs().len(), 21);
        assert_eq!(
            spec.unit_jobs().len(),
            21 * SchemePoint::COUNT,
            "9 scheme points per combo"
        );
    }

    #[test]
    fn class_filter_selects_table8_subsets() {
        let spec = SweepSpec {
            name: "c5".into(),
            classes: vec![ComboClass::C5],
            combos: Vec::new(),
            budget: BudgetPreset::Quick,
            stop: StopPreset::Fixed,
            phase_shift: None,
        };
        let jobs = spec.combo_jobs();
        assert_eq!(jobs.len(), 3, "Table 8: C5 has three combos");
        assert!(jobs.iter().all(|j| j.combo.class == ComboClass::C5));
        assert!(jobs.iter().all(|j| j.units.len() == SchemePoint::COUNT));
    }

    #[test]
    fn keys_differ_across_units_and_budgets() {
        let quick = SweepSpec::full(BudgetPreset::Quick);
        let keys: Vec<String> = quick.unit_jobs().into_iter().map(|j| j.key).collect();
        let unique: std::collections::BTreeSet<&String> = keys.iter().collect();
        assert_eq!(unique.len(), keys.len(), "unit keys are distinct");

        let eval = SweepSpec::full(BudgetPreset::Eval);
        assert_ne!(
            eval.unit_jobs()[0].key,
            keys[0],
            "budget is part of the key"
        );
    }

    #[test]
    fn keys_are_reproducible() {
        let a = SweepSpec::full(BudgetPreset::Quick).unit_jobs();
        let b = SweepSpec::full(BudgetPreset::Quick).unit_jobs();
        assert!(a.iter().zip(&b).all(|(x, y)| x.key == y.key));
    }

    #[test]
    fn scheme_edit_invalidates_only_that_schemes_keys() {
        let combo = all_combos()[0];
        let base = BudgetPreset::Quick.compare_config();
        let mut snug_edit = base;
        snug_edit.snug.counter_bits += 1;
        let mut dsr_edit = base;
        dsr_edit.dsr.psel_bits += 1;

        for point in SchemePoint::all() {
            let orig = unit_key(&combo, &point, &base, None);
            let after_snug = unit_key(&combo, &point, &snug_edit, None);
            let after_dsr = unit_key(&combo, &point, &dsr_edit, None);
            match point {
                SchemePoint::Snug => {
                    assert_ne!(orig, after_snug, "SNUG edit re-keys SNUG jobs");
                    assert_eq!(orig, after_dsr, "DSR edit leaves SNUG jobs cached");
                }
                SchemePoint::Dsr => {
                    assert_ne!(orig, after_dsr, "DSR edit re-keys DSR jobs");
                    assert_eq!(orig, after_snug, "SNUG edit leaves DSR jobs cached");
                }
                _ => {
                    assert_eq!(orig, after_snug, "{}", point.label());
                    assert_eq!(orig, after_dsr, "{}", point.label());
                }
            }
        }
    }

    /// A unit key hashed from its pieces — the expansion's shared
    /// suffix states and four-lane fan, and the one-off split key —
    /// equals the key of the joined input string.
    #[test]
    fn expansion_keys_equal_the_joined_input_key() {
        let mut shifted = SweepSpec::full(BudgetPreset::Mid);
        shifted.stop = StopPreset::Reconverged {
            window_cycles: Some(150_000),
            rel_epsilon: None,
        };
        shifted.phase_shift = Some("1800000:demand=300".into());
        for spec in [
            SweepSpec::full(BudgetPreset::Quick),
            SweepSpec::full(BudgetPreset::Mid),
            shifted,
            crate::experiments_md::eval_converged_spec(),
        ] {
            let units = spec.unit_jobs();
            assert_eq!(units.len(), 189);
            for u in units {
                let (combo, point, cfg) = (u.combo, u.point, u.config);
                let phase = phase_fragment(u.phase.as_ref());
                let joined = content_key(&format!(
                    "{SCHEMA_VERSION}|{combo:?}|{point:?}|{:?}|{}|{}{phase}",
                    cfg.system,
                    cfg.plan.fingerprint(),
                    point.param_fingerprint(&cfg),
                ));
                assert_eq!(u.key, joined, "{} ({})", u.label(), spec.budget_label());
                let single = unit_key(&combo, &point, &cfg, u.phase.as_ref());
                assert_eq!(single, joined, "{}", u.label());
            }
        }
    }

    /// A named perturbation of one configuration field, with the point
    /// whose keys it must change (`None`: every point).
    type ConfigEdit = (&'static str, Option<SchemePoint>, fn(&mut CompareConfig));

    /// One [`ConfigEdit`] per key input field. The exhaustive patterns
    /// make a new field of any of these types a compile error here
    /// until it gets an edit.
    fn config_edits() -> Vec<ConfigEdit> {
        use sim_cmp::{BusConfig, CoreConfig, StopSpec, SystemConfig};
        use sim_mem::{DramConfig, Geometry};
        use snug_core::{DsrConfig, SnugConfig};

        let cfg = CompareConfig::quick();
        let CompareConfig {
            system,
            plan,
            snug,
            dsr,
        } = cfg;
        let SystemConfig {
            num_cores: _,
            l1,
            l2_slice: _,
            l1_latency: _,
            l2_local_latency: _,
            l2_remote_latency: _,
            snug_remote_latency: _,
            core,
            bus,
            dram,
            write_buffer_entries: _,
            address_bits: _,
        } = system;
        let Geometry {
            block_bytes: _,
            num_sets: _,
            assoc: _,
        } = l1;
        let CoreConfig {
            issue_width: _,
            rob_size: _,
            max_outstanding: _,
        } = core;
        let BusConfig {
            width_bytes: _,
            speed_ratio: _,
            arbitration: _,
        } = bus;
        let DramConfig {
            latency: _,
            service_interval: _,
        } = dram;
        let RunPlan {
            warmup_cycles: _,
            stop: _,
        } = plan;
        let SnugConfig {
            counter_bits: _,
            p: _,
            stage1_cycles: _,
            stage2_cycles: _,
            flipping: _,
            flip_width: _,
            clear_shadows_each_period: _,
            continuous_sampling: _,
        } = snug;
        let DsrConfig {
            sample_stride: _,
            psel_bits: _,
        } = dsr;

        let snug = Some(SchemePoint::Snug);
        let dsr = Some(SchemePoint::Dsr);
        vec![
            ("num_cores", None, |c| c.system.num_cores += 1),
            ("l1.block_bytes", None, |c| c.system.l1.block_bytes *= 2),
            ("l1.num_sets", None, |c| c.system.l1.num_sets *= 2),
            ("l1.assoc", None, |c| c.system.l1.assoc += 1),
            ("l2_slice.block_bytes", None, |c| {
                c.system.l2_slice.block_bytes *= 2
            }),
            ("l2_slice.num_sets", None, |c| {
                c.system.l2_slice.num_sets *= 2
            }),
            ("l2_slice.assoc", None, |c| c.system.l2_slice.assoc += 1),
            ("l1_latency", None, |c| c.system.l1_latency += 1),
            ("l2_local_latency", None, |c| c.system.l2_local_latency += 1),
            ("l2_remote_latency", None, |c| {
                c.system.l2_remote_latency += 1
            }),
            ("snug_remote_latency", None, |c| {
                c.system.snug_remote_latency += 1
            }),
            ("core.issue_width", None, |c| c.system.core.issue_width += 1),
            ("core.rob_size", None, |c| c.system.core.rob_size += 1),
            ("core.max_outstanding", None, |c| {
                c.system.core.max_outstanding += 1
            }),
            ("bus.width_bytes", None, |c| c.system.bus.width_bytes += 1),
            ("bus.speed_ratio", None, |c| c.system.bus.speed_ratio += 1),
            ("bus.arbitration", None, |c| c.system.bus.arbitration += 1),
            ("dram.latency", None, |c| c.system.dram.latency += 1),
            ("dram.service_interval", None, |c| {
                c.system.dram.service_interval += 1
            }),
            ("write_buffer_entries", None, |c| {
                c.system.write_buffer_entries += 1
            }),
            ("address_bits", None, |c| c.system.address_bits += 1),
            ("plan.warmup_cycles", None, |c| c.plan.warmup_cycles += 1),
            ("plan.measured window", None, |c| match &mut c.plan.stop {
                StopSpec::FixedCycles { measure_cycles: m }
                | StopSpec::Converged { max_cycles: m, .. }
                | StopSpec::Reconverged { max_cycles: m, .. } => *m += 1,
            }),
            ("plan.window_cycles", None, |c| match &mut c.plan.stop {
                StopSpec::FixedCycles { .. } => {}
                StopSpec::Converged { window_cycles, .. }
                | StopSpec::Reconverged { window_cycles, .. } => *window_cycles += 1,
            }),
            ("plan.rel_epsilon", None, |c| match &mut c.plan.stop {
                StopSpec::FixedCycles { .. } => {}
                StopSpec::Converged { rel_epsilon, .. }
                | StopSpec::Reconverged { rel_epsilon, .. } => *rel_epsilon += 0.01,
            }),
            ("plan.min_cycles", None, |c| match &mut c.plan.stop {
                StopSpec::FixedCycles { .. } => {}
                StopSpec::Converged { min_cycles, .. }
                | StopSpec::Reconverged { min_cycles, .. } => *min_cycles += 1,
            }),
            ("plan.stop policy", None, |c| {
                c.plan.stop = match c.plan.stop {
                    StopSpec::FixedCycles { measure_cycles } => StopSpec::Converged {
                        window_cycles: measure_cycles / 10,
                        rel_epsilon: 0.02,
                        min_cycles: 0,
                        max_cycles: measure_cycles,
                    },
                    StopSpec::Converged {
                        window_cycles,
                        rel_epsilon,
                        min_cycles,
                        max_cycles,
                    } => StopSpec::Reconverged {
                        window_cycles,
                        rel_epsilon,
                        min_cycles,
                        max_cycles,
                    },
                    StopSpec::Reconverged { max_cycles, .. } => StopSpec::FixedCycles {
                        measure_cycles: max_cycles,
                    },
                }
            }),
            ("snug.counter_bits", snug, |c| c.snug.counter_bits += 1),
            ("snug.p", snug, |c| c.snug.p += 1),
            ("snug.stage1_cycles", snug, |c| c.snug.stage1_cycles += 1),
            ("snug.stage2_cycles", snug, |c| c.snug.stage2_cycles += 1),
            ("snug.flipping", snug, |c| c.snug.flipping ^= true),
            ("snug.flip_width", snug, |c| c.snug.flip_width += 1),
            ("snug.clear_shadows_each_period", snug, |c| {
                c.snug.clear_shadows_each_period ^= true
            }),
            ("snug.continuous_sampling", snug, |c| {
                c.snug.continuous_sampling ^= true
            }),
            ("dsr.sample_stride", dsr, |c| c.dsr.sample_stride += 1),
            ("dsr.psel_bits", dsr, |c| c.dsr.psel_bits += 1),
        ]
    }

    /// Key injectivity per field: perturbing one field of the
    /// platform, the run plan, SNUG's or DSR's parameters, or the
    /// phase schedule re-keys every point that reads it and keeps every
    /// other point's key, through both the expansion and the one-off
    /// key path.
    #[test]
    fn each_key_input_field_rekeys_exactly_its_points() {
        let combo = all_combos()[0];
        let points = SchemePoint::all();
        let keys = |cfg: &CompareConfig, phase: Option<&PhaseSchedule>| -> Vec<String> {
            let expanded: Vec<String> = unit_jobs_for(&combo, cfg, phase)
                .into_iter()
                .map(|u| u.key)
                .collect();
            let single: Vec<String> = points
                .iter()
                .map(|p| unit_key(&combo, p, cfg, phase))
                .collect();
            assert_eq!(expanded, single);
            expanded
        };
        let check =
            |what: &str, reads: Option<SchemePoint>, before: &[String], after: &[String]| {
                for ((point, b), a) in points.iter().zip(before).zip(after) {
                    let rekeyed = reads.is_none_or(|p| p == *point);
                    assert_eq!(b != a, rekeyed, "{what}: {} key", point.label());
                }
            };

        let quick = CompareConfig::quick();
        let bases = [
            (quick, None),
            (
                quick.until_converged(Some(30_000), Some(0.05)),
                Some("400000:demand=300"),
            ),
            (
                quick.until_reconverged(Some(30_000), Some(0.05)),
                Some("200000:near=10;400000:profile=mcf@0,2"),
            ),
        ];
        let mut changed_something = vec![false; config_edits().len()];
        for (base, phase) in bases {
            let phase = phase.map(|s| PhaseSchedule::parse(s).unwrap());
            let before = keys(&base, phase.as_ref());
            for ((what, reads, edit), changed) in
                config_edits().into_iter().zip(&mut changed_something)
            {
                let mut edited = base;
                edit(&mut edited);
                if edited == base {
                    continue; // a converged-only field on a fixed plan
                }
                *changed = true;
                check(what, reads, &before, &keys(&edited, phase.as_ref()));
            }
            for other in [
                "400000:demand=200",
                "400001:demand=300",
                "400000:demand=300@1",
            ] {
                let other = PhaseSchedule::parse(other).unwrap();
                if Some(&other) != phase.as_ref() {
                    check("phase", None, &before, &keys(&base, Some(&other)));
                }
            }
            if phase.is_some() {
                check("no phase", None, &before, &keys(&base, None));
            }
        }
        assert!(
            changed_something.iter().all(|&c| c),
            "every edit applies to some base"
        );
    }

    #[test]
    fn trace_keys_are_distinct_from_unit_keys_and_stride_sensitive() {
        let combo = all_combos()[0];
        let cfg = BudgetPreset::Quick.compare_config();
        let sched = PhaseSchedule::parse("1800000:demand=200").unwrap();
        for point in SchemePoint::all() {
            let t = trace_key(&combo, &point, &cfg, 50_000, None);
            assert_ne!(t, unit_key(&combo, &point, &cfg, None));
            assert_ne!(t, trace_key(&combo, &point, &cfg, 25_000, None));
            assert_eq!(t, trace_key(&combo, &point, &cfg, 50_000, None));
            assert_ne!(
                t,
                trace_key(&combo, &point, &cfg, 50_000, Some(&sched)),
                "the phase schedule is part of the trace key"
            );
        }
    }

    #[test]
    fn custom_budget_feeds_the_config() {
        let spec = SweepSpec {
            name: "tiny".into(),
            classes: vec![ComboClass::C1],
            combos: Vec::new(),
            budget: BudgetPreset::Custom {
                warmup_cycles: 11,
                measure_cycles: 22,
            },
            stop: StopPreset::Fixed,
            phase_shift: None,
        };
        let cfg = spec.compare_config();
        assert_eq!(cfg.plan.warmup_cycles, 11);
        assert_eq!(cfg.plan.measure_cycles(), 22);
    }

    #[test]
    fn converged_stop_rekeys_every_unit_and_label() {
        let mut spec = SweepSpec::full(BudgetPreset::Mid);
        let fixed_keys: Vec<String> = spec.unit_jobs().into_iter().map(|j| j.key).collect();
        spec.stop = StopPreset::Converged {
            window_cycles: None,
            rel_epsilon: None,
        };
        let converged_keys: Vec<String> = spec.unit_jobs().into_iter().map(|j| j.key).collect();
        assert!(
            fixed_keys.iter().zip(&converged_keys).all(|(f, c)| f != c),
            "converged runs never collide with canonical entries"
        );
        assert_eq!(spec.budget_label(), "mid+converged");

        // Tuning the policy re-keys again.
        spec.stop = StopPreset::Converged {
            window_cycles: Some(150_000),
            rel_epsilon: None,
        };
        let tuned: Vec<String> = spec.unit_jobs().into_iter().map(|j| j.key).collect();
        assert!(converged_keys.iter().zip(&tuned).all(|(a, b)| a != b));
    }

    #[test]
    fn phase_schedule_rekeys_every_unit_and_label() {
        let mut spec = SweepSpec::full(BudgetPreset::Mid);
        let canonical: Vec<String> = spec.unit_jobs().into_iter().map(|j| j.key).collect();
        spec.phase_shift = Some("1800000:demand=200".into());
        let shifted: Vec<String> = spec.unit_jobs().into_iter().map(|j| j.key).collect();
        assert!(
            canonical.iter().zip(&shifted).all(|(c, s)| c != s),
            "a shifted workload never collides with canonical entries"
        );
        assert_eq!(spec.budget_label(), "mid+shifted");
        assert!(spec.unit_jobs().iter().all(|j| j.phase.is_some()));

        // A different schedule re-keys again; the stationary spec keeps
        // its original keys.
        spec.phase_shift = Some("1800000:demand=300".into());
        let other: Vec<String> = spec.unit_jobs().into_iter().map(|j| j.key).collect();
        assert!(shifted.iter().zip(&other).all(|(a, b)| a != b));
        spec.phase_shift = None;
        let back: Vec<String> = spec.unit_jobs().into_iter().map(|j| j.key).collect();
        assert_eq!(back, canonical, "canonical keys are untouched");
    }

    #[test]
    fn reconverged_stop_rekeys_distinctly_from_converged() {
        let mut spec = SweepSpec::full(BudgetPreset::Mid);
        spec.stop = StopPreset::Converged {
            window_cycles: None,
            rel_epsilon: None,
        };
        let converged: Vec<String> = spec.unit_jobs().into_iter().map(|j| j.key).collect();
        spec.stop = StopPreset::Reconverged {
            window_cycles: None,
            rel_epsilon: None,
        };
        let reconverged: Vec<String> = spec.unit_jobs().into_iter().map(|j| j.key).collect();
        assert!(converged.iter().zip(&reconverged).all(|(a, b)| a != b));
        assert_eq!(spec.budget_label(), "mid+reconverged");
        spec.phase_shift = Some("1800000:demand=200".into());
        assert_eq!(spec.budget_label(), "mid+shifted+reconverged");
    }

    /// Spec fields the CLI flags would reject fail decoding too: an
    /// unparsable phase schedule, and stop knobs outside `--window`'s
    /// and `--rel-eps`'s bounds, which would otherwise reach
    /// `RunPlan::until_converged`'s asserts.
    #[test]
    fn bad_phase_shift_specs_fail_json_decoding() {
        let mut spec = SweepSpec::full(BudgetPreset::Quick);
        spec.phase_shift = Some("1000:demand=200".into());
        let base = spec.to_json().as_obj().unwrap().clone();
        let mut bad = vec![("phase_shift", Value::str("1000:warp=9"))];
        for preset in ["until_converged", "until_reconverged"] {
            for (window, eps) in [(0.0, -1.0), (-5.0, 0.02), (0.5, 0.02), (1.0, -1.0)] {
                let knobs = vec![
                    ("window_cycles", Value::num(window)),
                    ("rel_epsilon", Value::num(eps)),
                ];
                bad.push((preset, Value::obj(knobs)));
            }
        }
        for (field, value) in bad {
            let mut obj = base.clone();
            obj.insert(field.into(), value.clone());
            let decoded = SweepSpec::from_json(&Value::Obj(obj));
            assert!(decoded.is_err(), "{field}: {value:?}");
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        for spec in [
            SweepSpec::full(BudgetPreset::Quick),
            SweepSpec::full(BudgetPreset::Mid),
            SweepSpec::full(BudgetPreset::Eval),
            SweepSpec {
                name: "x".into(),
                classes: vec![ComboClass::C2, ComboClass::C6],
                combos: vec!["ammp+parser+swim+mesa".into()],
                budget: BudgetPreset::Custom {
                    warmup_cycles: 5,
                    measure_cycles: 9,
                },
                stop: StopPreset::Fixed,
                phase_shift: None,
            },
            SweepSpec {
                name: "conv".into(),
                classes: Vec::new(),
                combos: Vec::new(),
                budget: BudgetPreset::Mid,
                stop: StopPreset::Converged {
                    window_cycles: None,
                    rel_epsilon: None,
                },
                phase_shift: None,
            },
            SweepSpec {
                name: "conv-tuned".into(),
                classes: Vec::new(),
                combos: Vec::new(),
                budget: BudgetPreset::Mid,
                stop: StopPreset::Converged {
                    window_cycles: Some(150_000),
                    rel_epsilon: Some(0.25),
                },
                phase_shift: None,
            },
            SweepSpec {
                name: "shifted-reconv".into(),
                classes: vec![ComboClass::C1],
                combos: Vec::new(),
                budget: BudgetPreset::Mid,
                stop: StopPreset::Reconverged {
                    window_cycles: Some(150_000),
                    rel_epsilon: None,
                },
                phase_shift: Some("1500000:near=10;1800000:demand=200@0,2".into()),
            },
            SweepSpec {
                name: "shifted-conv".into(),
                classes: Vec::new(),
                combos: Vec::new(),
                budget: BudgetPreset::Quick,
                stop: StopPreset::Converged {
                    window_cycles: None,
                    rel_epsilon: Some(0.5),
                },
                phase_shift: Some("400000:profile=mcf".into()),
            },
        ] {
            let text = spec.to_json().render();
            let back = SweepSpec::from_json(&crate::json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, spec);

            // Specs written while the shared-warm-up variant existed
            // carry the field: `false` still decodes to the same spec,
            // `true` names the removed variant instead of silently
            // running canonical semantics.
            let mut obj = spec.to_json().as_obj().unwrap().clone();
            obj.insert("shared_warmup".into(), Value::Bool(false));
            assert_eq!(
                SweepSpec::from_json(&Value::Obj(obj.clone())).unwrap(),
                spec
            );
            obj.insert("shared_warmup".into(), Value::Bool(true));
            let err = SweepSpec::from_json(&Value::Obj(obj)).unwrap_err();
            assert!(
                err.0.contains("shared-warm-up variant was removed"),
                "{err:?}"
            );
        }
    }
}
