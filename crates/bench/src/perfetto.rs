//! Chrome trace-event JSON export of a pipeline trace, loadable in
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`; written by
//! `darsie-sim profile --perfetto PATH`.
//!
//! The mapping: one *process* per SM, one *thread* per warp slot. Every
//! [`gpu_sim::PipeEvent`] becomes a complete event (`ph: "X"`) with `ts` = cycle
//! and `dur` = 1, so a warp's lifetime reads as a row of labelled
//! single-cycle blocks. When a profile is supplied, its occupancy samples
//! become counter tracks (`ph: "C"`) per SM. Dropped-event counts land in
//! `otherData` so a truncated ring is visible in the UI.
//!
//! The run manifest's host phase spans ride along on their own synthetic
//! process (pid 1000000) with microsecond timestamps: a different clock
//! domain than the cycle-stamped pipeline rows, kept on a separate track
//! for exactly that reason.

use crate::json::{object, Arr};
use crate::manifest::PhaseSpan;
use gpu_sim::{EventLog, SimProfile};
use std::collections::BTreeSet;

/// Synthetic process id for the host-phase track.
const PHASE_PID: usize = 1_000_000;

/// Renders `events`, the occupancy counters of `profile` (when given) and
/// the host `phases` as a Chrome trace-event JSON object. A phase of zero
/// length is widened to 1 µs so its slice stays visible.
#[must_use]
pub fn chrome_trace_json(
    events: &EventLog,
    profile: Option<&SimProfile>,
    phases: &[PhaseSpan],
) -> String {
    // Metadata: name each SM process and each warp thread that appears.
    let mut sms: BTreeSet<usize> = events.iter().map(|e| e.sm).collect();
    let warps: BTreeSet<(usize, usize)> = events.iter().map(|e| (e.sm, e.warp)).collect();
    if let Some(p) = profile {
        sms.extend(p.sms.iter().filter(|s| !s.samples.is_empty()).map(|s| s.sm));
    }
    object(|o| {
        o.field("displayTimeUnit", "ns");
        o.arr("traceEvents", |a| {
            for &sm in &sms {
                process_name(a, sm, &format!("SM {sm}"));
            }
            for &(sm, warp) in &warps {
                a.obj(|m| {
                    m.field("ph", "M").field("name", "thread_name").field("pid", sm);
                    m.field("tid", warp).obj("args", |x| {
                        x.field("name", format!("warp {warp}"));
                    });
                });
            }
            for e in events.iter() {
                a.obj(|x| {
                    x.field("ph", "X").field("name", format!("{:?}", e.kind));
                    x.field("cat", "pipeline").field("ts", e.cycle).field("dur", 1usize);
                    x.field("pid", e.sm).field("tid", e.warp).obj("args", |p| {
                        p.field("pc", e.pc);
                    });
                });
            }
            for smp in profile.iter().flat_map(|p| &p.sms) {
                for s in &smp.samples {
                    a.obj(|c| {
                        c.field("ph", "C").field("name", "darsie occupancy").field("pid", smp.sm);
                        c.field("ts", s.cycle).obj("args", |x| {
                            x.field("skip_entries", s.skip_entries);
                            x.field("live_versions", s.live_versions);
                            x.field("waiting_warps", s.waiting_warps);
                        });
                    });
                }
            }
            if !phases.is_empty() {
                process_name(a, PHASE_PID, "host phases");
            }
            for p in phases {
                a.obj(|x| {
                    x.field("ph", "X").field("name", &p.name).field("cat", "phase");
                    x.field("ts", (p.start_seconds * 1e6) as u64);
                    x.field("dur", ((p.wall_seconds * 1e6) as u64).max(1));
                    x.field("pid", PHASE_PID).field("tid", 0usize).obj("args", |_| {});
                });
            }
        });
        o.obj("otherData", |x| {
            x.field("dropped_events", events.dropped);
        });
    })
}

fn process_name(a: &mut Arr, pid: usize, name: &str) {
    a.obj(|m| {
        m.field("ph", "M").field("name", "process_name").field("pid", pid);
        m.obj("args", |x| {
            x.field("name", name);
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{EventKind, OccupancySample, PipeEvent, SmProfile};

    fn phase(name: &str, start_seconds: f64, wall_seconds: f64) -> PhaseSpan {
        PhaseSpan { name: name.to_string(), start_seconds, wall_seconds, alloc_bytes: 0, allocs: 0 }
    }

    #[test]
    fn trace_has_metadata_events_and_drop_count() {
        let mut log = EventLog::new(4);
        log.push(PipeEvent { cycle: 3, sm: 0, warp: 1, pc: 7, kind: EventKind::Issue });
        log.push(PipeEvent { cycle: 4, sm: 0, warp: 1, pc: 8, kind: EventKind::Skip });
        let json = chrome_trace_json(&log, None, &[]);
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"ph\":\"M\""), "process/thread names: {json}");
        assert!(json.contains("\"name\":\"SM 0\""), "{json}");
        assert!(json.contains("\"ph\":\"X\",\"name\":\"Issue\""), "{json}");
        assert!(json.contains("\"ts\":3"), "{json}");
        assert!(json.contains("\"dropped_events\":0"), "{json}");
    }

    #[test]
    fn phases_render_on_their_own_process() {
        let log = EventLog::new(0);
        let phases = [phase("run:BIN", 0.0, 0.25), phase("write \"x\"", 0.25, 0.0)];
        let json = chrome_trace_json(&log, None, &phases);
        assert!(json.contains("\"name\":\"host phases\""), "{json}");
        assert!(json.contains("\"cat\":\"phase\""), "{json}");
        assert!(json.contains("\"name\":\"run:BIN\",\"cat\":\"phase\",\"ts\":0,\"dur\":250000"));
        // Zero-length phases are widened to 1us; names are escaped.
        assert!(json.contains("\"name\":\"write \\\"x\\\"\""), "{json}");
        assert!(json.contains("\"ts\":250000,\"dur\":1,"), "{json}");
        // Without phases the document has no host track.
        assert!(!chrome_trace_json(&log, None, &[]).contains("host phases"));
    }

    #[test]
    fn profile_samples_become_counters() {
        let log = EventLog::new(0);
        let mut smp = SmProfile::new(2, 8, 4);
        smp.samples.push(OccupancySample {
            cycle: 256,
            skip_entries: 3,
            skip_capacity: 8,
            live_versions: 5,
            rename_capacity: 32,
            resident_warps: 8,
            waiting_warps: 2,
        });
        let prof = SimProfile { sms: vec![smp] };
        let json = chrome_trace_json(&log, Some(&prof), &[]);
        assert!(json.contains("\"ph\":\"C\""), "{json}");
        assert!(json.contains("\"skip_entries\":3"), "{json}");
        assert!(json.contains("\"pid\":2"), "{json}");
    }
}
