//! The end-of-run report: one structure gathering span timings, metric
//! values, retained warnings, and the per-`n` error decomposition that
//! makes the paper's U-curve directly inspectable.
//!
//! The decomposition is rebuilt from retained `probe` events (emitted by
//! each `TuningSession` probe with `side`, `expression_error`, `model_error`
//! and `total` fields), deduplicated by side — re-probing a side under a
//! memoising search does not duplicate rows.
//!
//! Two renderings: [`RunReport::to_json`] (machine-readable, also written
//! to the trace stream as the final `report` record by [`RunReport::emit`])
//! and `Display` (the human-readable table for `--report`).

use crate::json::Val;
use crate::metrics::{self, MetricsSnapshot};
use crate::span::{self, SpanStat};
use crate::trace::{self, Level, TraceEvent};
use std::fmt;

/// One row of the per-`n` error decomposition (Theorem II.1: real error ≤
/// model error + expression error).
#[derive(Debug, Clone, PartialEq)]
pub struct DecompRow {
    /// MGrid side `s`.
    pub side: u32,
    /// Cell count `n = s²`.
    pub n: u64,
    /// Expression-error term `Σ E_e`.
    pub expression_error: f64,
    /// Model-error term `n · MAE`.
    pub model_error: f64,
    /// The upper bound `e(s)`.
    pub total: f64,
}

/// A point-in-time summary of everything the observability layer saw.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-name span timing aggregates, name-sorted.
    pub span_stats: Vec<(&'static str, SpanStat)>,
    /// Every registered counter/gauge/histogram.
    pub metrics: MetricsSnapshot,
    /// Per-`n` error decomposition, side-sorted.
    pub decomposition: Vec<DecompRow>,
    /// Retained warn-level events, oldest first.
    pub warnings: Vec<TraceEvent>,
}

impl RunReport {
    /// Snapshots the current global state.
    pub fn capture() -> RunReport {
        let events = trace::recent_events();
        let mut rows: Vec<DecompRow> = Vec::new();
        for ev in &events {
            if ev.name != "probe" {
                continue;
            }
            let (Some(side), Some(expr), Some(model), Some(total)) = (
                ev.field("side").and_then(|v| v.as_f64()),
                ev.field("expression_error").and_then(|v| v.as_f64()),
                ev.field("model_error").and_then(|v| v.as_f64()),
                ev.field("total").and_then(|v| v.as_f64()),
            ) else {
                continue;
            };
            let side = side as u32;
            let row = DecompRow {
                side,
                n: u64::from(side) * u64::from(side),
                expression_error: expr,
                model_error: model,
                total,
            };
            match rows.iter_mut().find(|r| r.side == side) {
                Some(existing) => *existing = row,
                None => rows.push(row),
            }
        }
        rows.sort_by_key(|r| r.side);
        RunReport {
            span_stats: span::span_stats(),
            metrics: metrics::snapshot(),
            decomposition: rows,
            warnings: events
                .into_iter()
                .filter(|e| e.level == Level::Warn)
                .collect(),
        }
    }

    /// JSON form — the body of the trace stream's `report` record.
    pub fn to_val(&self) -> Val {
        Val::obj(vec![
            ("t", Val::from("report")),
            ("ts", Val::U64(span::since_epoch_ns())),
            (
                "spans",
                Val::Obj(
                    self.span_stats
                        .iter()
                        .map(|(name, s)| {
                            (
                                name.to_string(),
                                Val::obj(vec![
                                    ("count", Val::U64(s.count)),
                                    ("total_ns", Val::U64(s.total_ns)),
                                    ("min_ns", Val::U64(s.min_ns)),
                                    ("max_ns", Val::U64(s.max_ns)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            ("metrics", self.metrics.to_val()),
            (
                "decomposition",
                Val::Arr(
                    self.decomposition
                        .iter()
                        .map(|r| {
                            Val::obj(vec![
                                ("side", Val::U64(u64::from(r.side))),
                                ("n", Val::U64(r.n)),
                                ("expression_error", Val::F64(r.expression_error)),
                                ("model_error", Val::F64(r.model_error)),
                                ("total", Val::F64(r.total)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "warnings",
                Val::Arr(
                    self.warnings
                        .iter()
                        .map(|w| {
                            Val::obj(vec![
                                ("name", Val::from(w.name)),
                                (
                                    "f",
                                    Val::Obj(
                                        w.fields
                                            .iter()
                                            .map(|(k, v)| (k.to_string(), v.clone()))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Compact single-line JSON.
    pub fn to_json(&self) -> String {
        self.to_val().render()
    }

    /// Writes the report as the trace stream's final record and flushes.
    /// A no-op when no sink is installed.
    pub fn emit(&self) {
        trace::write_raw(self.to_val());
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== run report ==")?;
        if !self.span_stats.is_empty() {
            writeln!(f, "-- spans --")?;
            writeln!(
                f,
                "{:<24} {:>8} {:>12} {:>12} {:>12} {:>12}",
                "name", "count", "total ms", "mean ms", "min ms", "max ms"
            )?;
            for (name, s) in &self.span_stats {
                writeln!(
                    f,
                    "{:<24} {:>8} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
                    name,
                    s.count,
                    ms(s.total_ns),
                    ms(s.total_ns) / s.count.max(1) as f64,
                    ms(s.min_ns),
                    ms(s.max_ns)
                )?;
            }
        }
        if !self.metrics.counters.is_empty() {
            writeln!(f, "-- counters --")?;
            for (name, v) in &self.metrics.counters {
                writeln!(f, "{name:<40} {v:>12}")?;
            }
        }
        // Expression-kernel efficiency, when the batched sweep ran: how
        // much of the per-cell work dedup collapsed, and how many table
        // builds the cross-probe pmf memo absorbed.
        let counter = |name: &str| {
            self.metrics
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
        };
        if let (Some(cells), Some(dedup)) = (counter("expr.cell_evals"), counter("expr.dedup_hits"))
        {
            if cells > 0 {
                let evals = counter("expr.evals").unwrap_or(cells - dedup);
                let memo_hits = counter("expr.pmf_memo_hits").unwrap_or(0);
                writeln!(f, "-- expression kernel --")?;
                writeln!(
                    f,
                    "cell evals {cells} -> group evals {evals} (dedup saved {:.1}%), pmf memo hits {memo_hits}",
                    dedup as f64 / cells as f64 * 100.0
                )?;
            }
        }
        if !self.metrics.gauges.is_empty() {
            writeln!(f, "-- gauges --")?;
            for (name, v) in &self.metrics.gauges {
                writeln!(f, "{name:<40} {v:>12.4}")?;
            }
        }
        if !self.metrics.histograms.is_empty() {
            writeln!(f, "-- histograms --")?;
            for h in &self.metrics.histograms {
                let mean = if h.count > 0 {
                    h.sum / h.count as f64
                } else {
                    0.0
                };
                writeln!(
                    f,
                    "{:<40} count={} mean={:.3} max={:.3}",
                    h.name, h.count, mean, h.max
                )?;
            }
        }
        if !self.decomposition.is_empty() {
            writeln!(f, "-- error decomposition (per n) --")?;
            writeln!(
                f,
                "{:>6} {:>8} {:>16} {:>16} {:>16}",
                "side", "n", "model_error", "expr_error", "total e(s)"
            )?;
            for r in &self.decomposition {
                writeln!(
                    f,
                    "{:>6} {:>8} {:>16.6} {:>16.6} {:>16.6}",
                    r.side, r.n, r.model_error, r.expression_error, r.total
                )?;
            }
        }
        if !self.warnings.is_empty() {
            writeln!(f, "-- warnings --")?;
            for w in &self.warnings {
                write!(f, "warn {}", w.name)?;
                for (k, v) in &w.fields {
                    write!(f, " {}={}", k, v.render())?;
                }
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposition_rows_come_from_probe_events_deduped() {
        let _guard = crate::test_guard();
        crate::enable();
        trace::reset_events();
        crate::event!(
            "probe",
            side = 4u32,
            expression_error = 2.0f64,
            model_error = 1.0f64,
            total = 3.0f64
        );
        crate::event!(
            "probe",
            side = 2u32,
            expression_error = 5.0f64,
            model_error = 0.5f64,
            total = 5.5f64
        );
        // Re-probe of side 4 with updated numbers: last write wins.
        crate::event!(
            "probe",
            side = 4u32,
            expression_error = 2.5f64,
            model_error = 1.5f64,
            total = 4.0f64
        );
        crate::warn_event!("report_test_warn", detail = "x");
        let report = RunReport::capture();
        assert_eq!(report.decomposition.len(), 2);
        assert_eq!(report.decomposition[0].side, 2);
        assert_eq!(report.decomposition[1].side, 4);
        assert_eq!(report.decomposition[1].n, 16);
        assert_eq!(report.decomposition[1].total, 4.0);
        assert!(report.warnings.iter().any(|w| w.name == "report_test_warn"));
        trace::reset_events();
    }

    #[test]
    fn kernel_efficiency_line_renders_when_counters_present() {
        let _guard = crate::test_guard();
        crate::enable();
        crate::counter!("expr.cell_evals").add(100);
        crate::counter!("expr.dedup_hits").add(60);
        crate::counter!("expr.evals").add(40);
        crate::counter!("expr.pmf_memo_hits").add(30);
        let text = RunReport::capture().to_string();
        assert!(
            text.contains("-- expression kernel --"),
            "missing kernel section:\n{text}"
        );
        assert!(text.contains("dedup saved"), "{text}");
    }

    #[test]
    fn json_and_display_render() {
        let _guard = crate::test_guard();
        crate::enable();
        trace::reset_events();
        {
            let _s = crate::span!("report_test_span");
        }
        crate::counter!("report.test.counter").inc();
        crate::event!(
            "probe",
            side = 8u32,
            expression_error = 1.0f64,
            model_error = 2.0f64,
            total = 3.0f64
        );
        let report = RunReport::capture();
        let json = report.to_json();
        let parsed = Val::parse(&json).expect("report JSON parses");
        assert_eq!(parsed.get("t").and_then(|v| v.as_str()), Some("report"));
        assert!(parsed
            .get("spans")
            .and_then(|s| s.get("report_test_span"))
            .is_some());
        assert!(json.contains("report.test.counter"));
        let text = report.to_string();
        assert!(text.contains("== run report =="));
        assert!(text.contains("error decomposition"));
        assert!(text.contains("report_test_span"));
        trace::reset_events();
    }
}
