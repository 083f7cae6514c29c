//! Declarative sweep specifications.
//!
//! A [`SweepSpec`] names *what* to run — workload classes × the five
//! schemes × a run budget — and expands into concrete [`UnitJob`]s, one
//! per *(combo, scheme point)* simulation, each carrying the content
//! key that addresses its result in the store. The CLI builds specs
//! from flags.

use crate::hash::{content_key, content_keys, ContentKey};
use sim_cmp::{BusConfig, CoreConfig, SystemConfig};
use sim_mem::{DramConfig, Geometry};
use snug_core::{DsrConfig, SnugConfig};
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

    /// The command-line flags that select this budget: `--quick`,
    /// `--mid`, `--eval`, or `--warmup N --measure N`.
    pub fn flags(&self) -> String {
        match self {
            BudgetPreset::Custom {
                warmup_cycles,
                measure_cycles,
            } => format!("--warmup {warmup_cycles} --measure {measure_cycles}"),
            preset => format!("--{}", preset.label()),
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
    pub(crate) fn apply(&self, cfg: CompareConfig) -> CompareConfig {
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
    /// hand-built spec with a bad schedule.
    #[expect(
        clippy::expect_used,
        reason = "documented # Panics: specs are canonicalised at parse time"
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
        KeyedPoints::new(&config, phase.as_ref(), SchemePoint::all()).combo_jobs(self.combos())
    }

    /// Every unit job of the spec, flattened in run order.
    pub fn unit_jobs(&self) -> Vec<UnitJob> {
        self.combo_jobs()
            .into_iter()
            .flat_map(|c| c.units)
            .collect()
    }
}

/// One unit job: run a single scheme point on one combo — the cache
/// granularity of the store.
#[derive(Debug, Clone)]
pub struct UnitJob {
    /// Content key addressing this job's result in the store.
    pub key: ContentKey,
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
    /// The name of the scheme-parameter edit this job runs under, for
    /// its label (`None`: the configuration's own parameters; the key
    /// covers the parameters either way).
    pub variant: Option<&'static str>,
}

impl UnitJob {
    /// Display label: `"ammp+parser+swim+mesa [cc@50%]"`, or with a
    /// variant `"ammp+ammp+ammp+ammp [snug: k=6, p=16]"`.
    pub fn label(&self) -> String {
        match self.variant {
            None => format!("{} [{}]", self.combo.label(), self.point.label()),
            Some(variant) => format!("{} [{}: {variant}]", self.combo.label(), self.point.label()),
        }
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
    KeyedPoints::new(config, phase, SchemePoint::all())
        .combo_jobs(vec![*combo])
        .into_iter()
        .flat_map(|job| job.units)
        .collect()
}

/// Scheme points of one (configuration, phase) expansion with the key
/// input they share across combos. A unit key hashes
/// `{key_prefix}{suffix}`, where only the ~70-byte prefix names the
/// combo and the ~1 KB suffix — the point, platform key text, plan
/// fingerprint, scheme parameter key text and phase — is the same for
/// every combo. So the suffixes render once per expansion, and
/// [`content_keys`] hashes each shared piece once and advances every
/// (combo, point) lane in one loop.
struct KeyedPoints<'a> {
    config: &'a CompareConfig,
    phase: Option<&'a PhaseSchedule>,
    /// The points keyed.
    points: Vec<SchemePoint>,
    /// Each point's [`point_fragment`] and the phase fragment.
    suffixes: Vec<String>,
}

impl<'a> KeyedPoints<'a> {
    fn new(
        config: &'a CompareConfig,
        phase: Option<&'a PhaseSchedule>,
        points: Vec<SchemePoint>,
    ) -> Self {
        let system = system_key_text(&config.system);
        let plan = config.plan.fingerprint();
        let phase_fragment = phase_fragment(phase);
        let suffixes = points
            .iter()
            .map(|point| point_fragment(point, config, &system, &plan) + &phase_fragment)
            .collect();
        KeyedPoints {
            config,
            phase,
            points,
            suffixes,
        }
    }

    /// The key of every (combo, point), combo-major.
    fn keys(&self, combos: &[Combo]) -> Vec<ContentKey> {
        let prefixes: Vec<String> = combos.iter().map(key_prefix).collect();
        let prefixes: Vec<&[u8]> = prefixes.iter().map(String::as_bytes).collect();
        let suffixes: Vec<&[u8]> = self.suffixes.iter().map(String::as_bytes).collect();
        content_keys(&prefixes, &suffixes)
    }

    /// Every combo's unit jobs, grouped per combo, keyed in one batch.
    fn combo_jobs(&self, combos: Vec<Combo>) -> Vec<ComboJob> {
        let mut keys = self.keys(&combos).into_iter();
        combos
            .into_iter()
            .map(|combo| ComboJob {
                units: self
                    .points
                    .iter()
                    .zip(keys.by_ref())
                    .map(|(point, key)| UnitJob {
                        key,
                        combo,
                        point: *point,
                        config: *self.config,
                        phase: self.phase.cloned(),
                        variant: None,
                    })
                    .collect(),
                combo,
                config: *self.config,
            })
            .collect()
    }
}

/// The part of a unit key's input that names the combo:
/// `{SCHEMA_VERSION}|{combo:?}|`.
fn key_prefix(combo: &Combo) -> String {
    format!("{SCHEMA_VERSION}|{combo:?}|")
}

/// The key input after the combo that one point shares across combos:
/// `{point:?}|{system key text}|{plan fingerprint}|{params key text}`.
fn point_fragment(point: &SchemePoint, config: &CompareConfig, system: &str, plan: &str) -> String {
    format!(
        "{point:?}|{system}|{plan}|{}",
        params_key_text(point, config)
    )
}

/// The key suffix of a phase-change schedule; empty for the stationary
/// workload, keeping every pre-phase-schedule key byte-identical.
fn phase_fragment(phase: Option<&PhaseSchedule>) -> String {
    phase
        .map(|p| format!("|phase={}", p.fingerprint()))
        .unwrap_or_default()
}

// Key text of the configuration types: each encoder destructures its
// type exhaustively, so a new field does not compile until it is spelled
// here, and writes the derived-`Debug` text the committed keys were
// hashed from, a since-deleted field as the constant it always held.

/// The platform's key text: `SystemConfig { num_cores: 4, l1: Geometry
/// { … }, …, write_buffer_entries: 16, address_bits: 32 }`, the address
/// width a retired field's constant.
pub fn system_key_text(system: &SystemConfig) -> String {
    let SystemConfig {
        num_cores,
        l1,
        l2_slice,
        l1_latency,
        l2_local_latency,
        l2_remote_latency,
        snug_remote_latency,
        core,
        bus,
        dram,
        write_buffer_entries,
    } = *system;
    let CoreConfig {
        issue_width,
        rob_size,
        max_outstanding,
    } = core;
    let BusConfig {
        width_bytes,
        speed_ratio,
        arbitration,
    } = bus;
    let DramConfig {
        latency,
        service_interval,
    } = dram;
    format!(
        "SystemConfig {{ num_cores: {num_cores}, l1: {}, l2_slice: {}, \
         l1_latency: {l1_latency}, l2_local_latency: {l2_local_latency}, \
         l2_remote_latency: {l2_remote_latency}, snug_remote_latency: {snug_remote_latency}, \
         core: CoreConfig {{ issue_width: {issue_width}, rob_size: {rob_size}, \
         max_outstanding: {max_outstanding} }}, \
         bus: BusConfig {{ width_bytes: {width_bytes}, speed_ratio: {speed_ratio}, \
         arbitration: {arbitration} }}, \
         dram: DramConfig {{ latency: {latency}, service_interval: {service_interval} }}, \
         write_buffer_entries: {write_buffer_entries}, address_bits: 32 }}",
        geometry_key_text(l1),
        geometry_key_text(l2_slice),
    )
}

fn geometry_key_text(geometry: Geometry) -> String {
    let Geometry {
        block_bytes,
        num_sets,
        assoc,
    } = geometry;
    format!("Geometry {{ block_bytes: {block_bytes}, num_sets: {num_sets}, assoc: {assoc} }}")
}

/// The key text of the scheme parameters a point reads: `cfg.snug` for
/// SNUG, `cfg.dsr` for DSR and nothing for the rest, so a scheme-config
/// edit re-keys exactly that scheme's units.
pub fn params_key_text(point: &SchemePoint, cfg: &CompareConfig) -> String {
    match point {
        SchemePoint::Dsr => dsr_key_text(&cfg.dsr),
        SchemePoint::Snug => snug_key_text(&cfg.snug),
        SchemePoint::L2p | SchemePoint::L2s | SchemePoint::Cc { .. } => String::new(),
    }
}

/// SNUG's key text, with retired fields' constants `flip_width: 1` (one
/// f bit per line) and `clear_shadows_each_period: false`.
fn snug_key_text(snug: &SnugConfig) -> String {
    let SnugConfig {
        counter_bits,
        p,
        stage1_cycles,
        stage2_cycles,
        flipping,
        continuous_sampling,
    } = *snug;
    format!(
        "SnugConfig {{ counter_bits: {counter_bits}, p: {p}, stage1_cycles: {stage1_cycles}, \
         stage2_cycles: {stage2_cycles}, flipping: {flipping}, flip_width: 1, \
         clear_shadows_each_period: false, continuous_sampling: {continuous_sampling} }}"
    )
}

fn dsr_key_text(dsr: &DsrConfig) -> String {
    let DsrConfig {
        sample_stride,
        psel_bits,
    } = *dsr;
    format!("DsrConfig {{ sample_stride: {sample_stride}, psel_bits: {psel_bits} }}")
}

/// A whole comparison configuration's key text, for fingerprints that
/// cover every scheme; the plan keeps its derived `Debug` spelling.
pub fn config_key_text(cfg: &CompareConfig) -> String {
    let CompareConfig {
        system,
        plan,
        snug,
        dsr,
    } = cfg;
    format!(
        "CompareConfig {{ system: {}, plan: {plan:?}, snug: {}, dsr: {} }}",
        system_key_text(system),
        snug_key_text(snug),
        dsr_key_text(dsr),
    )
}

/// The content key of one (combo, scheme point) simulation.
///
/// Hashes exactly the inputs that simulation depends on under
/// [`SCHEMA_VERSION`]: the combo, the point, the platform, the run
/// plan (via [`RunPlan::fingerprint`] — fixed plans render exactly as
/// the legacy `RunBudget` debug string, so pre-plan store entries keep
/// matching, while converged plans key separately), and — via
/// [`params_key_text`] — the scheme's own parameters
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
) -> ContentKey {
    point_keys(std::slice::from_ref(combo), point, config, phase)[0]
}

/// The [`unit_key`] of one point on each of `combos`, in their order:
/// the point's suffix renders and its reverse state hashes once, and
/// the forward lane fans over the combos.
pub(crate) fn point_keys(
    combos: &[Combo],
    point: &SchemePoint,
    config: &CompareConfig,
    phase: Option<&PhaseSchedule>,
) -> Vec<ContentKey> {
    KeyedPoints::new(config, phase, vec![*point]).keys(combos)
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
) -> ContentKey {
    content_key(&format!(
        "{SCHEMA_VERSION}|trace|{combo:?}|{}|stride={stride}{}",
        point_fragment(
            point,
            config,
            &system_key_text(&config.system),
            &config.plan.fingerprint()
        ),
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
        let keys: Vec<ContentKey> = quick.unit_jobs().into_iter().map(|j| j.key).collect();
        let unique: std::collections::BTreeSet<&ContentKey> = keys.iter().collect();
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

    /// A unit key hashed from its pieces — the expansion's batched
    /// lanes, the one-off key and the stop summary's per-point keys —
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
                    "{SCHEMA_VERSION}|{combo:?}|{point:?}|{}|{}|{}{phase}",
                    system_key_text(&cfg.system),
                    cfg.plan.fingerprint(),
                    params_key_text(&point, &cfg),
                ));
                assert_eq!(u.key, joined, "{} ({})", u.label(), spec.budget_label());
                let single = unit_key(&combo, &point, &cfg, u.phase.as_ref());
                assert_eq!(single, joined, "{}", u.label());
            }
            let (config, phase) = (spec.compare_config(), spec.phase_schedule());
            let jobs = spec.combo_jobs();
            for (p, point) in SchemePoint::all().iter().enumerate() {
                let keys = point_keys(&spec.combos(), point, &config, phase.as_ref());
                let expanded: Vec<ContentKey> = jobs.iter().map(|j| j.units[p].key).collect();
                assert_eq!(
                    keys,
                    expanded,
                    "{} ({})",
                    point.label(),
                    spec.budget_label()
                );
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
        use sim_cmp::StopSpec;

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
        let keys = |cfg: &CompareConfig, phase: Option<&PhaseSchedule>| -> Vec<ContentKey> {
            let expanded: Vec<ContentKey> = unit_jobs_for(&combo, cfg, phase)
                .into_iter()
                .map(|u| u.key)
                .collect();
            let single: Vec<ContentKey> = points
                .iter()
                .map(|p| unit_key(&combo, p, cfg, phase))
                .collect();
            assert_eq!(expanded, single);
            expanded
        };
        let check = |what: &str,
                     reads: Option<SchemePoint>,
                     before: &[ContentKey],
                     after: &[ContentKey]| {
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
        let fixed_keys: Vec<ContentKey> = spec.unit_jobs().into_iter().map(|j| j.key).collect();
        spec.stop = StopPreset::Converged {
            window_cycles: None,
            rel_epsilon: None,
        };
        let converged_keys: Vec<ContentKey> = spec.unit_jobs().into_iter().map(|j| j.key).collect();
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
        let tuned: Vec<ContentKey> = spec.unit_jobs().into_iter().map(|j| j.key).collect();
        assert!(converged_keys.iter().zip(&tuned).all(|(a, b)| a != b));
    }

    #[test]
    fn phase_schedule_rekeys_every_unit_and_label() {
        let mut spec = SweepSpec::full(BudgetPreset::Mid);
        let canonical: Vec<ContentKey> = spec.unit_jobs().into_iter().map(|j| j.key).collect();
        spec.phase_shift = Some("1800000:demand=200".into());
        let shifted: Vec<ContentKey> = spec.unit_jobs().into_iter().map(|j| j.key).collect();
        assert!(
            canonical.iter().zip(&shifted).all(|(c, s)| c != s),
            "a shifted workload never collides with canonical entries"
        );
        assert_eq!(spec.budget_label(), "mid+shifted");
        assert!(spec.unit_jobs().iter().all(|j| j.phase.is_some()));

        // A different schedule re-keys again; the stationary spec keeps
        // its original keys.
        spec.phase_shift = Some("1800000:demand=300".into());
        let other: Vec<ContentKey> = spec.unit_jobs().into_iter().map(|j| j.key).collect();
        assert!(shifted.iter().zip(&other).all(|(a, b)| a != b));
        spec.phase_shift = None;
        let back: Vec<ContentKey> = spec.unit_jobs().into_iter().map(|j| j.key).collect();
        assert_eq!(back, canonical, "canonical keys are untouched");
    }

    #[test]
    fn reconverged_stop_rekeys_distinctly_from_converged() {
        let mut spec = SweepSpec::full(BudgetPreset::Mid);
        spec.stop = StopPreset::Converged {
            window_cycles: None,
            rel_epsilon: None,
        };
        let converged: Vec<ContentKey> = spec.unit_jobs().into_iter().map(|j| j.key).collect();
        spec.stop = StopPreset::Reconverged {
            window_cycles: None,
            rel_epsilon: None,
        };
        let reconverged: Vec<ContentKey> = spec.unit_jobs().into_iter().map(|j| j.key).collect();
        assert!(converged.iter().zip(&reconverged).all(|(a, b)| a != b));
        assert_eq!(spec.budget_label(), "mid+reconverged");
        spec.phase_shift = Some("1800000:demand=200".into());
        assert_eq!(spec.budget_label(), "mid+shifted+reconverged");
    }
}
