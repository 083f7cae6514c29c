//! Declarative sweep specifications.
//!
//! A [`SweepSpec`] names *what* to run — workload classes × the five
//! schemes × a run budget — and expands into concrete [`UnitJob`]s, one
//! per *(combo, scheme point)* simulation, each carrying the content
//! key that addresses its result in the store. The CLI builds specs
//! from flags; they also round-trip through JSON
//! (`snug sweep --spec file.json`).

use crate::codec::JsonCodec;
use crate::hash::content_key;
use crate::json::{JsonError, Value};
use serde::{Deserialize, Serialize};
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    pub fn phase_schedule(&self) -> Option<PhaseSchedule> {
        self.phase_shift
            .as_deref()
            // snug-lint: allow(panic-audit, "documented # Panics: specs are canonicalised at parse time and from_json rejects bad schedules")
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
        let budget = match self.budget {
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
            ("name", Value::str(&self.name)),
            (
                "classes",
                Value::Arr(self.classes.iter().map(JsonCodec::to_json).collect()),
            ),
            (
                "combos",
                Value::Arr(self.combos.iter().map(|s| Value::str(s.as_str())).collect()),
            ),
            ("budget", budget),
        ];
        if let Some(spec) = &self.phase_shift {
            fields.push(("phase_shift", Value::str(spec)));
        }
        match self.stop {
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

/// Decode a stop preset's optional tuning knobs.
fn parse_stop_params(obj: &Value) -> Result<(Option<u64>, Option<f64>), JsonError> {
    Ok((
        match obj.get("window_cycles") {
            Ok(w) => Some(w.as_num()? as u64),
            Err(_) => None,
        },
        match obj.get("rel_epsilon") {
            Ok(e) => Some(e.as_num()?),
            Err(_) => None,
        },
    ))
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

/// The unit jobs of one combo under one configuration (stationary
/// workload).
pub fn unit_jobs_for(combo: &Combo, config: &CompareConfig) -> Vec<UnitJob> {
    unit_jobs_phased(combo, config, None)
}

/// The unit jobs of one combo, optionally under a phase-change
/// schedule (which re-keys every unit — the workload is different).
pub fn unit_jobs_phased(
    combo: &Combo,
    config: &CompareConfig,
    phase: Option<&PhaseSchedule>,
) -> Vec<UnitJob> {
    KeyedPoints::new(config, phase).unit_jobs(combo)
}

/// Every scheme point of one (configuration, phase) expansion with the
/// key input it shares across combos — the platform `Debug` string, the
/// plan fingerprint, the point's parameter fingerprint and the phase
/// suffix — rendered once per expansion instead of once per unit.
struct KeyedPoints<'a> {
    config: &'a CompareConfig,
    phase: Option<&'a PhaseSchedule>,
    /// [`SchemePoint::all`], each with its [`point_fragment`].
    points: Vec<(SchemePoint, String)>,
    /// The [`phase_fragment`].
    phase_fragment: String,
}

impl<'a> KeyedPoints<'a> {
    fn new(config: &'a CompareConfig, phase: Option<&'a PhaseSchedule>) -> Self {
        let system = format!("{:?}", config.system);
        let plan = config.plan.fingerprint();
        KeyedPoints {
            config,
            phase,
            points: SchemePoint::all()
                .into_iter()
                .map(|point| {
                    let fragment = point_fragment(&point, config, &system, &plan);
                    (point, fragment)
                })
                .collect(),
            phase_fragment: phase_fragment(phase),
        }
    }

    /// One combo's unit jobs.
    fn unit_jobs(&self, combo: &Combo) -> Vec<UnitJob> {
        let combo_debug = format!("{combo:?}");
        self.points
            .iter()
            .map(|(point, fragment)| UnitJob {
                key: unit_key_of(&combo_debug, fragment, &self.phase_fragment),
                combo: *combo,
                point: *point,
                config: *self.config,
                phase: self.phase.cloned(),
            })
            .collect()
    }
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

/// A unit key from its rendered fragments.
fn unit_key_of(combo_debug: &str, point_fragment: &str, phase: &str) -> String {
    content_key(&format!(
        "{SCHEMA_VERSION}|{combo_debug}|{point_fragment}{phase}"
    ))
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
/// hitting.
pub fn unit_key(combo: &Combo, point: &SchemePoint, config: &CompareConfig) -> String {
    unit_key_phased(combo, point, config, None)
}

/// [`unit_key`] with an optional phase-change schedule. A schedule
/// is part of the workload, so its canonical fingerprint joins the key
/// input; the stationary case contributes nothing, keeping every
/// pre-phase-schedule key byte-identical.
pub fn unit_key_phased(
    combo: &Combo,
    point: &SchemePoint,
    config: &CompareConfig,
    phase: Option<&PhaseSchedule>,
) -> String {
    unit_key_of(
        &format!("{combo:?}"),
        &single_point_fragment(point, config),
        &phase_fragment(phase),
    )
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
        let unique: std::collections::HashSet<&String> = keys.iter().collect();
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
            let orig = unit_key(&combo, &point, &base);
            let after_snug = unit_key(&combo, &point, &snug_edit);
            let after_dsr = unit_key(&combo, &point, &dsr_edit);
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

    #[test]
    fn trace_keys_are_distinct_from_unit_keys_and_stride_sensitive() {
        let combo = all_combos()[0];
        let cfg = BudgetPreset::Quick.compare_config();
        let sched = PhaseSchedule::parse("1800000:demand=200").unwrap();
        for point in SchemePoint::all() {
            let t = trace_key(&combo, &point, &cfg, 50_000, None);
            assert_ne!(t, unit_key(&combo, &point, &cfg));
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

    #[test]
    fn bad_phase_shift_specs_fail_json_decoding() {
        let mut spec = SweepSpec::full(BudgetPreset::Quick);
        spec.phase_shift = Some("1000:demand=200".into());
        let mut obj = spec.to_json().as_obj().unwrap().clone();
        obj.insert("phase_shift".into(), Value::str("1000:warp=9"));
        assert!(SweepSpec::from_json(&Value::Obj(obj)).is_err());
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
