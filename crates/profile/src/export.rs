//! Exporters: a deterministic speedscope-format flamegraph and a rendered
//! text dashboard.
//!
//! The speedscope file is an `evented` profile per core over the shared
//! class frames; values are picoseconds (`unit: "none"`). Everything is
//! written with `write!` over integers and fixed-precision floats, so the
//! bytes are a pure function of the report.

use std::fmt::Write as _;

use crate::account::CLASS_NAMES;
use crate::{json_escape, ProfileReport};

/// Renders the report as a speedscope JSON document
/// (<https://www.speedscope.app/file-format-schema.json>): one evented
/// profile per core, one frame per accounting class, idle included so every
/// profile covers the whole measured window.
pub(crate) fn speedscope(report: &ProfileReport, name: &str) -> String {
    let mut out = String::new();
    out.push_str("{\"$schema\":\"https://www.speedscope.app/file-format-schema.json\"");
    let _ = write!(out, ",\"name\":\"{}\"", json_escape(name));
    out.push_str(",\"exporter\":\"kus-profile\",\"activeProfileIndex\":0");
    out.push_str(",\"shared\":{\"frames\":[");
    for (i, class) in CLASS_NAMES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"name\":\"{class}\"}}");
    }
    out.push_str("]},\"profiles\":[");
    let w0 = report.ctx.window_start.as_ps();
    let w1 = report.ctx.window_end.as_ps();
    for (i, tl) in report.timelines.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"type\":\"evented\",\"name\":\"core {}\",\"unit\":\"none\",\"startValue\":{w0},\"endValue\":{w1},\"events\":[",
            tl.track
        );
        for (j, &(s, n, class)) in tl.segments.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"type\":\"O\",\"frame\":{class},\"at\":{s}}},{{\"type\":\"C\",\"frame\":{class},\"at\":{n}}}"
            );
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

fn fmt_us(ps: u64) -> String {
    format!("{:.3} us", ps as f64 / 1e6)
}

fn bar(share: f64, width: usize) -> String {
    let filled = (share * width as f64).round() as usize;
    let filled = filled.min(width);
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

/// Renders the report as a human-readable text dashboard.
pub(crate) fn dashboard(report: &ProfileReport, name: &str) -> String {
    let ctx = &report.ctx;
    let window = (ctx.window_end - ctx.window_start).as_ps();
    let wall = window * ctx.cores as u64;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile: {name} (mechanism {}, {} cores x {} fibers, window {})",
        ctx.mechanism,
        ctx.cores,
        ctx.fibers_per_core,
        fmt_us(window)
    );

    out.push_str("  cycle accounting (all cores):\n");
    for (class, span) in report.totals.classes() {
        let share = if wall == 0 { 0.0 } else { span.as_ps() as f64 / wall as f64 };
        let _ = writeln!(
            out,
            "    {class:<16} {:>14}  {:>6.1}%  {}",
            fmt_us(span.as_ps()),
            share * 100.0,
            bar(share, 30)
        );
    }

    let p = &report.pressure;
    out.push_str("  pressure:\n");
    let _ = writeln!(
        out,
        "    lfb occupancy p50/p99/max {}/{}/{} of {} ({} full rejections, {} waits)",
        p.lfb_occupancy.quantile(0.5).as_ps(),
        p.lfb_occupancy.quantile(0.99).as_ps(),
        p.lfb_occupancy.max().as_ps(),
        ctx.lfb_capacity,
        p.lfb_full_events,
        p.lfb_waits
    );
    if p.chip_queue_at_acquire.count() > 0 {
        let _ = writeln!(
            out,
            "    chip queue at acquire p99/max {}/{} of {}",
            p.chip_queue_at_acquire.quantile(0.99).as_ps(),
            p.chip_queue_at_acquire.max().as_ps(),
            ctx.device_path_credits
        );
    }
    if p.enqueues > 0 {
        let _ = writeln!(
            out,
            "    ring at enqueue p99/max {}/{} of {}; doorbell batching {:.2}; burst efficiency {:.2}",
            p.ring_at_enqueue.quantile(0.99).as_ps(),
            p.ring_at_enqueue.max().as_ps(),
            ctx.ring_capacity,
            p.doorbell_batching(),
            p.burst_efficiency()
        );
    }
    if ctx.sched_stall_handoffs > 0 {
        let _ = writeln!(out, "    scheduler stall handoffs {}", ctx.sched_stall_handoffs);
    }

    if report.blame.requests > 0 {
        let _ = writeln!(out, "  blame (all {} requests / p99 tail {}):", report.blame.requests, report.blame_p99.requests);
        for (all, tail) in report.blame.rows.iter().zip(&report.blame_p99.rows) {
            if all.count == 0 && tail.count == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "    {:<16} {:>5} reqs {:>14}  | tail {:>4} reqs {:>14}",
                all.segment,
                all.count,
                fmt_us(all.blamed.as_ps()),
                tail.count,
                fmt_us(tail.blamed.as_ps())
            );
        }
    }

    out.push_str("  verdicts:\n");
    if report.verdicts.is_empty() {
        out.push_str("    (none)\n");
    }
    for v in &report.verdicts {
        let _ = writeln!(out, "    - {v}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProfileContext;
    use kus_sim::time::{Span, Time};
    use kus_sim::trace::{Category, EventName, Phase, TraceEvent};

    fn sample_report() -> ProfileReport {
        let evs = vec![
            TraceEvent {
                at: Time::from_ps(100),
                cat: Category::Cpu,
                name: EventName::CpuWork,
                phase: Phase::Complete,
                track: 0,
                a0: 0,
                a1: 400,
            },
            TraceEvent {
                at: Time::from_ps(600),
                cat: Category::Cpu,
                name: EventName::CpuPark,
                phase: Phase::Complete,
                track: 0,
                a0: 0,
                a1: 300,
            },
        ];
        let ctx = ProfileContext {
            cores: 1,
            fibers_per_core: 2,
            mechanism: "ondemand".to_string(),
            lfb_capacity: 10,
            ring_capacity: 64,
            device_path_credits: 14,
            ctx_switch: Span::from_us(2),
            window_start: Time::ZERO,
            window_end: Time::from_ps(1000),
            sched_stall_handoffs: 0,
        };
        ProfileReport::build(&evs, ctx)
    }

    #[test]
    fn speedscope_has_schema_frames_and_profiles() {
        let ss = sample_report().to_speedscope("sample");
        assert!(ss.contains("\"$schema\":\"https://www.speedscope.app/file-format-schema.json\""));
        assert!(ss.contains("\"shared\":{\"frames\":["));
        assert!(ss.contains("\"profiles\":["));
        assert!(ss.contains("\"name\":\"compute\""));
        assert!(ss.contains("{\"type\":\"O\",\"frame\":2,\"at\":100}"));
        assert!(ss.contains("{\"type\":\"C\",\"frame\":2,\"at\":500}"));
        assert_eq!(ss.matches("\"type\":\"O\"").count(), ss.matches("\"type\":\"C\"").count());
        let opens = ss.matches('{').count();
        assert_eq!(opens, ss.matches('}').count());
    }

    #[test]
    fn dashboard_renders_accounts_and_verdicts() {
        let d = sample_report().dashboard("sample");
        assert!(d.starts_with("profile: sample (mechanism ondemand, 1 cores x 2 fibers"));
        assert!(d.contains("compute"));
        assert!(d.contains("blocked_load"));
        assert!(d.contains("verdicts:"));
    }
}
