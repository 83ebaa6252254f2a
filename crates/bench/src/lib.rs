//! The experiment harness: one module per table/figure of the paper.
//!
//! The `repro` binary (`cargo run --release -p gridtuner-bench --bin repro
//! -- <id> [--quick]`) regenerates the data series behind every figure and
//! table in the paper's evaluation; the Criterion benches under `benches/`
//! time the algorithmic kernels (expression-error algorithms, search,
//! matching, the NN substrate).
//!
//! Output convention: every experiment prints a TSV block to stdout —
//! a `# <experiment>: <description>` header, a column-name row, then data
//! rows. `EXPERIMENTS.md` records a run of each block next to the paper's
//! reported shape.

pub mod ctx;
pub mod experiments;
pub mod kernel_timing;

use gridtuner_datagen::City;

/// Harness-wide configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunCfg {
    /// Volume scale applied to every city (1.0 = the paper's full
    /// volumes). Experiments that train neural models or run dispatch use
    /// `volume_scale`; pure-analytic experiments (Figs. 3, 13, 14, 16) run
    /// at full volume regardless.
    pub volume_scale: f64,
    /// Shrinks sweeps/epochs for smoke runs.
    pub quick: bool,
    /// Base RNG seed.
    pub seed: u64,
    /// Restricts multi-city sweeps to one preset (canonical name from
    /// [`City::PRESET_NAMES`]); `None` sweeps all three.
    pub city: Option<&'static str>,
}

impl Default for RunCfg {
    fn default() -> Self {
        RunCfg {
            volume_scale: 0.01,
            quick: false,
            seed: 2022,
            city: None,
        }
    }
}

impl RunCfg {
    /// Quick-mode variant.
    pub fn quick() -> Self {
        RunCfg {
            quick: true,
            volume_scale: 0.004,
            ..RunCfg::default()
        }
    }

    /// Picks between a full and a quick sweep list.
    pub fn sweep<'a, T: Copy>(&self, full: &'a [T], quick: &'a [T]) -> &'a [T] {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// The city presets a multi-city experiment should sweep: all three,
    /// or just the one selected by `--city`. Unscaled — experiments apply
    /// their own volume policy.
    pub fn city_sweep(&self) -> Vec<City> {
        City::all_presets()
            .into_iter()
            .filter(|c| self.city.is_none_or(|name| c.name() == name))
            .collect()
    }
}

/// Prints a TSV header block.
pub fn header(id: &str, description: &str, columns: &[&str]) {
    println!("# {id}: {description}");
    println!("{}", columns.join("\t"));
}

/// Formats a float with sensible width for TSV output.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

/// The expression-kernel registry counters `BENCH_tune.json` records for
/// the cached tune, in its key order (`.` becomes `_` in the keys).
pub const KERNEL_COUNTERS: [&str; 4] = [
    "expr.cell_evals",
    "expr.dedup_hits",
    "expr.pmf_memo_hits",
    "expr.workspace_bytes",
];

/// Runs `f` and returns its result with how far each named `obs` registry
/// counter moved meanwhile. The registry is process-wide, so a delta is
/// one run's only while nothing else in the process works concurrently.
pub fn counter_deltas<T, const N: usize>(names: [&str; N], f: impl FnOnce() -> T) -> (T, [u64; N]) {
    let before = names.map(|n| gridtuner_obs::metrics::counter(n).get());
    let out = f();
    let deltas = std::array::from_fn(|i| {
        gridtuner_obs::metrics::counter(names[i])
            .get()
            .saturating_sub(before[i])
    });
    (out, deltas)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_picks_by_mode() {
        let full = [1, 2, 3];
        let quick = [1];
        assert_eq!(RunCfg::default().sweep(&full, &quick), &full);
        assert_eq!(RunCfg::quick().sweep(&full, &quick), &quick);
    }

    #[test]
    fn quick_mode_shrinks_volume() {
        assert!(RunCfg::quick().volume_scale < RunCfg::default().volume_scale);
        assert!(RunCfg::quick().quick);
    }

    #[test]
    fn fmt_widths() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(1234.56), "1234.6");
        assert_eq!(fmt(4.32109), "4.321");
        assert_eq!(fmt(0.001234), "0.00123");
    }
}
