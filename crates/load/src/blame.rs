//! Causal span DAGs and cross-tier critical-path blame.
//!
//! [`NetReport`](crate::net_report::NetReport) decomposes latency per
//! *stage*, but its decomposition is strictly linear — the moment a
//! fan-out tier runs hops concurrently, a telescoped sum of per-hop
//! spans over-counts: the request waits for the *max* child, not the
//! sum. This module rebuilds each request's **span DAG** from the
//! deterministic event trace and walks the **exact critical path**
//! through it:
//!
//! - Sequential stages (wire → rx-wait → NIC → steer → queue →
//!   `rpc.front` → … → `rpc.tx`) chain by anchored telescoping: each
//!   stage's segment is `[previous anchor end, this anchor end]`,
//!   clamped monotone, so the segment lengths sum to the request's
//!   sojourn **bit-exactly** by construction (asserted per request).
//! - The fan-out stage is a join: per-child `rpc.hop` spans (emitted
//!   when the run's [`causal`](kus_core::config::PlatformConfig::causal)
//!   event class is on) resolve the join to its critical child —
//!   `argmax` over child end times — splitting the stage into
//!   `rpc.fanout` (issue), `rpc.shard<i>` (the critical child), and
//!   `rpc.join` (fan-in after the last-needed child). Every child also
//!   records its **slack**: how much later it could have finished
//!   without mattering (`0` for the critical child).
//! - Requests that never complete (shed at admission, deadline, or by
//!   backpressure — or still in flight at the horizon) appear as
//!   truncated DAGs ending in a terminal `cut` hop, so the blame tables
//!   count them instead of silently dropping them.
//!
//! The result is a [`BlameReport`]: per-hop critical-path time, share,
//! and slack percentiles, overall and for the exact-p99 tail, rendered
//! as byte-deterministic JSON/tables like every other report. The same
//! DAG yields [`flow_arrows`] — Perfetto flow events that draw the
//! causal fan-out/join arrows in the Chrome trace export.

use std::fmt;
use std::ops::Range;

use kus_core::prelude::RunReport;
use kus_sim::stats::{p99_index, HdrHistogram, Percentiles};
use kus_sim::{Category, EventName, FlowArrow, Span, Time, TraceEvent, TraceLog};

use crate::by_id::sort_by_id;
use crate::report::percentiles_json;
use crate::tier::MAX_FANOUT;

/// A hop on a request's critical path, declared in the canonical chain
/// order of the blame tables: front end, queue, the tier chain with the
/// shards by index, then the egress and the terminal `cut`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hop {
    NetWire,
    NetRxWait,
    NetNic,
    NetSteer,
    Queue,
    RpcFront,
    RpcFanout,
    /// The fan-out child with this shard index.
    Shard(u32),
    RpcJoin,
    RpcService,
    RpcReply,
    Service,
    Host,
    RpcTx,
    Cut,
}

impl Hop {
    /// The `rpc.*` anchor spans, by chain position.
    const ANCHORS: [Hop; 4] = [Hop::RpcFront, Hop::RpcFanout, Hop::RpcService, Hop::RpcReply];

    /// One slot per hop, in the canonical order.
    const SLOTS: usize = 14 + MAX_FANOUT as usize;

    /// The hop's position in the canonical order: the shard slots sit
    /// between `rpc.fanout` and `rpc.join`.
    fn slot(self) -> usize {
        let shards = MAX_FANOUT as usize;
        match self {
            Hop::NetWire => 0,
            Hop::NetRxWait => 1,
            Hop::NetNic => 2,
            Hop::NetSteer => 3,
            Hop::Queue => 4,
            Hop::RpcFront => 5,
            Hop::RpcFanout => 6,
            Hop::Shard(i) => 7 + i as usize,
            Hop::RpcJoin => 7 + shards,
            Hop::RpcService => 8 + shards,
            Hop::RpcReply => 9 + shards,
            Hop::Service => 10 + shards,
            Hop::Host => 11 + shards,
            Hop::RpcTx => 12 + shards,
            Hop::Cut => 13 + shards,
        }
    }

    fn name(self) -> String {
        let label = match self {
            Hop::NetWire => "net.wire",
            Hop::NetRxWait => "net.rxwait",
            Hop::NetNic => "net.nic",
            Hop::NetSteer => "net.steer",
            Hop::Queue => "queue",
            Hop::RpcFront => "rpc.front",
            Hop::RpcFanout => "rpc.fanout",
            Hop::Shard(i) => return format!("rpc.shard{i}"),
            Hop::RpcJoin => "rpc.join",
            Hop::RpcService => "rpc.service",
            Hop::RpcReply => "rpc.reply",
            Hop::Service => "service",
            Hop::Host => "host",
            Hop::RpcTx => "rpc.tx",
            Hop::Cut => "cut",
        };
        label.to_string()
    }
}

/// One request's critical path: its segments and join slack, as ranges
/// of the shared [`Paths`] buffers.
struct ReqChain {
    /// Critical-path length: root start → last DAG node, in ps. Equals
    /// the sum of all segment lengths bit-exactly (asserted).
    total: u64,
    /// `(hop, ps)` segments in path order; zero-length segments omitted.
    segs: Range<usize>,
    /// Per-child `(shard, slack ps)` at the fan-in join; the critical
    /// child records slack `0`.
    slack: Range<usize>,
    /// True when the DAG ends in a terminal `cut` (never completed).
    truncated: bool,
}

/// Every request's chain, with the segments and slack of all of them in
/// two flat buffers.
struct Paths {
    chains: Vec<ReqChain>,
    segs: Vec<(Hop, u64)>,
    slack: Vec<(u32, u64)>,
}

impl Paths {
    /// Empty buffers with room for the chains of the requests in `marked`
    /// (as [`by_request`] orders them): a chain per id, a slack entry per
    /// fan-out child, and a segment per stamp plus two per request, which
    /// bounds what [`walk`] pushes.
    fn for_stamps(marked: &[(u64, Stamp)]) -> Paths {
        let ids = marked.chunk_by(|a, b| a.0 == b.0).count();
        let children = marked.iter().filter(|(_, s)| s.mark == Mark::Child).count();
        Paths {
            chains: Vec::with_capacity(ids),
            segs: Vec::with_capacity(marked.len() + 2 * ids),
            slack: Vec::with_capacity(children),
        }
    }
}

/// The trace events one request's DAG is rebuilt from.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mark {
    Arrival,
    Wire,
    RxWait,
    Nic,
    Steer,
    Tx,
    Dispatch,
    Complete,
    Shed,
    /// A per-child `rpc.hop` span; `a0 = req * MAX_FANOUT + shard`.
    Child,
    /// An `rpc.*` anchor span at this chain position.
    Anchor(u8),
}

impl Mark {
    fn of(name: EventName) -> Option<Mark> {
        Some(match name {
            EventName::NetArrival => Mark::Arrival,
            EventName::NetWire => Mark::Wire,
            EventName::NetRxWait => Mark::RxWait,
            EventName::NetNic => Mark::Nic,
            EventName::NetSteer => Mark::Steer,
            EventName::NetTx => Mark::Tx,
            EventName::LoadDispatch => Mark::Dispatch,
            EventName::LoadComplete => Mark::Complete,
            EventName::LoadShed | EventName::LoadShedDeadline | EventName::LoadShedAdmission => Mark::Shed,
            EventName::RpcHop => Mark::Child,
            EventName::RpcFront => Mark::Anchor(0),
            EventName::RpcFanout => Mark::Anchor(1),
            EventName::RpcService => Mark::Anchor(2),
            EventName::RpcReply => Mark::Anchor(3),
            _ => return None,
        })
    }
}

/// What a request's DAG keeps of one marked event: copied out of the
/// stream, so the walk in id order reads the records in sequence.
#[derive(Clone, Copy)]
struct Stamp {
    mark: Mark,
    /// `a0 % MAX_FANOUT`: the shard of a [`Mark::Child`].
    shard: u8,
    track: u32,
    at: Time,
    a1: u64,
}

/// The request `ev` belongs to and its stamp; `None` for events the DAG
/// does not use.
fn stamp(ev: &TraceEvent) -> Option<(u64, Stamp)> {
    if ev.cat != Category::Load {
        return None;
    }
    let mark = Mark::of(ev.name)?;
    let fanout = u64::from(MAX_FANOUT);
    let req = if mark == Mark::Child { ev.a0 / fanout } else { ev.a0 };
    let shard = (ev.a0 % fanout) as u8;
    Some((req, Stamp { mark, shard, track: ev.track, at: ev.at, a1: ev.a1 }))
}

/// Everything the trace knows about one request id.
struct ReqEvents {
    /// Wire-arrival time (`net.arrival` `a1`), when the NIC layer ran.
    at_wire: Option<u64>,
    /// Per-stage NIC front-end durations, ps.
    wire: u64,
    rx_wait: u64,
    nic: u64,
    steer: u64,
    /// Dispatch instant and true (delivered) arrival.
    dispatch: Option<(Time, u64)>,
    /// Completion instant.
    complete: Option<Time>,
    /// Response serialization (`net.tx` `a1`), ps.
    tx: u64,
    /// Sequential `rpc.*` anchor ends, by chain position.
    anchors: [Option<Time>; 4],
    /// Fan-out children `[start, end]` by shard index; the shards present
    /// are the set bits of `present`.
    children: [(Time, Time); MAX_FANOUT as usize],
    present: u64,
    /// Terminal event for requests that never complete (shed instant).
    cut_at: Option<Time>,
    /// Earliest time the id was seen at all (truncation root fallback).
    first_seen: Option<Time>,
}

// One bit of `ReqEvents::present` per shard.
const _: () = assert!(MAX_FANOUT <= u64::BITS);

impl ReqEvents {
    /// The request's state after its events, in stream order.
    fn gather(events: &[(u64, Stamp)]) -> ReqEvents {
        let mut r = ReqEvents {
            at_wire: None,
            wire: 0,
            rx_wait: 0,
            nic: 0,
            steer: 0,
            dispatch: None,
            complete: None,
            tx: 0,
            anchors: [None; 4],
            children: [(Time::ZERO, Time::ZERO); MAX_FANOUT as usize],
            present: 0,
            cut_at: None,
            first_seen: None,
        };
        for &(_, ev) in events {
            let end = ev.at + Span::from_ps(ev.a1);
            match ev.mark {
                Mark::Arrival => {
                    r.at_wire = Some(ev.a1);
                    r.see(Time::from_ps(ev.a1));
                }
                Mark::Wire => r.wire = ev.a1,
                Mark::RxWait => r.rx_wait = ev.a1,
                Mark::Nic => r.nic = ev.a1,
                Mark::Steer => r.steer = ev.a1,
                Mark::Tx => r.tx = ev.a1,
                Mark::Dispatch => {
                    r.dispatch = Some((ev.at, ev.a1));
                    r.see(Time::from_ps(ev.a1));
                }
                Mark::Complete => {
                    r.complete = Some(ev.at);
                    r.see(Time::from_ps(ev.a1));
                }
                Mark::Shed => {
                    r.cut_at = Some(ev.at);
                    r.see(Time::from_ps(ev.a1));
                }
                Mark::Child => {
                    // Retries/hedges re-serve a request; keep the last
                    // attempt (deterministic: stream order).
                    r.children[usize::from(ev.shard)] = (ev.at, end);
                    r.present |= 1 << ev.shard;
                }
                Mark::Anchor(pos) => r.anchors[usize::from(pos)] = Some(end),
            }
        }
        r
    }

    fn see(&mut self, at: Time) {
        if self.first_seen.is_none_or(|t| at < t) {
            self.first_seen = Some(at);
        }
    }

    /// The fan-out children in shard order.
    fn children(&self) -> impl Iterator<Item = (u32, (Time, Time))> + '_ {
        let mut present = self.present;
        std::iter::from_fn(move || {
            let shard = (present != 0).then(|| present.trailing_zeros())?;
            present &= present - 1;
            Some((shard, self.children[shard as usize]))
        })
    }
}

/// The stamps of the events whose mark `keep` selects, ordered by request
/// id and, within one request, by stream position: in one buffer sized
/// for every event of the stream.
fn by_request(events: impl ExactSizeIterator<Item = TraceEvent>, keep: impl Fn(Mark) -> bool) -> Vec<(u64, Stamp)> {
    let mut marked = Vec::with_capacity(events.len());
    marked.extend(events.filter_map(|ev| stamp(&ev).filter(|(_, s)| keep(s.mark))));
    sort_by_id(&mut marked);
    marked
}

/// Walks one request's DAG into its critical-path chain, appending its
/// segments and slack to `paths`. Does nothing for ids that never
/// materialized (no dispatch, no cut, no arrival).
fn walk(r: &ReqEvents, paths: &mut Paths) {
    // Root: wire arrival when the NIC ran, else the true arrival stamped
    // on dispatch/shed, else the first sighting.
    let root = match (r.at_wire, r.dispatch, r.cut_at, r.first_seen) {
        (Some(w), _, _, _) => Time::from_ps(w),
        (None, Some((_, arrival)), _, _) => Time::from_ps(arrival),
        (None, None, Some(_), Some(first)) => first,
        _ => return,
    };
    // Terminal node: completion + response serialization, or the cut.
    let (end, truncated) = match (r.complete, r.cut_at, r.dispatch) {
        (Some(done), _, _) => (done + Span::from_ps(r.tx), false),
        (None, Some(cut), _) => (cut, true),
        (None, None, Some((at, _))) => (at, true),
        (None, None, None) => (root, true),
    };
    let end = end.max(root);
    let total = (end - root).as_ps();

    let segs = &mut paths.segs;
    let seg_start = segs.len();
    let slack_start = paths.slack.len();
    let mut cur = root;
    // Pushes `[cur, to]` clamped monotone into `[cur, end]`; the clamp
    // plus the terminal residue is what makes the telescoped sum exact.
    let push = |segs: &mut Vec<(Hop, u64)>, cur: &mut Time, hop: Hop, to: Time| {
        let to = to.clamp(*cur, end);
        if to > *cur {
            segs.push((hop, (to - *cur).as_ps()));
            *cur = to;
        }
    };

    // NIC front-end stages, as durations anchored at the wire arrival.
    if r.at_wire.is_some() {
        let mut t = root;
        for (hop, d) in [
            (Hop::NetWire, r.wire),
            (Hop::NetRxWait, r.rx_wait),
            (Hop::NetNic, r.nic),
            (Hop::NetSteer, r.steer),
        ] {
            t += Span::from_ps(d);
            push(segs, &mut cur, hop, t);
        }
    }

    if let Some((dispatch_at, _)) = r.dispatch {
        push(segs, &mut cur, Hop::Queue, dispatch_at);
        if let Some(done) = r.complete {
            if r.anchors.iter().all(Option::is_none) {
                // Direct topology: the serve interval is one hop.
                push(segs, &mut cur, Hop::Service, done);
            } else {
                for (hop, anchor_end) in Hop::ANCHORS.into_iter().zip(r.anchors) {
                    let Some(anchor_end) = anchor_end else { continue };
                    if hop != Hop::RpcFanout {
                        push(segs, &mut cur, hop, anchor_end);
                        continue;
                    }
                    // Fan-out join: resolve to the critical child.
                    let seg_end = anchor_end.clamp(cur, end);
                    if let Some((crit, (c_start, c_end))) =
                        r.children().max_by_key(|&(i, (_, e))| (e, std::cmp::Reverse(i)))
                    {
                        for (i, (_, e)) in r.children() {
                            paths.slack.push((i, (c_end.max(e) - e).as_ps()));
                        }
                        push(segs, &mut cur, Hop::RpcFanout, c_start);
                        push(segs, &mut cur, Hop::Shard(crit), c_end);
                        push(segs, &mut cur, Hop::RpcJoin, seg_end);
                    } else {
                        // No causal children recorded: the stage
                        // stays one opaque hop.
                        push(segs, &mut cur, Hop::RpcFanout, seg_end);
                    }
                }
                // Residue between the last anchor and completion: host
                // software outside any tier span (dispatch overhead,
                // stalls, retry backoff).
                push(segs, &mut cur, Hop::Host, done);
            }
            push(segs, &mut cur, Hop::RpcTx, done + Span::from_ps(r.tx));
        }
    }
    if truncated {
        push(segs, &mut cur, Hop::Cut, end);
    }
    // Terminal residue (e.g. dispatched but unfinished at the horizon).
    if end > cur {
        segs.push((Hop::Cut, (end - cur).as_ps()));
    }

    // The bit-exact invariant: blame is a *decomposition* of the sojourn,
    // not an estimate of it.
    let sum: u64 = segs[seg_start..].iter().map(|&(_, ps)| ps).sum();
    assert_eq!(sum, total, "critical path must telescope to the sojourn exactly");
    paths.chains.push(ReqChain {
        total,
        segs: seg_start..segs.len(),
        slack: slack_start..paths.slack.len(),
        truncated,
    });
}

/// One hop's aggregate blame across a request population.
#[derive(Debug, Clone, PartialEq)]
pub struct HopBlame {
    /// Hop name (`net.*` stage, `queue`, `rpc.*` tier, `rpc.shard<i>`,
    /// `service`, `host`, `rpc.tx`, or the terminal `cut`).
    pub hop: String,
    /// Requests whose critical path runs through this hop.
    pub on_path: u64,
    /// Total critical-path time attributed to this hop.
    pub critical: Span,
    /// This hop's fraction of all critical-path time.
    pub share: f64,
    /// Fan-in slack: how much later this hop could have finished without
    /// lengthening any request (`count == 0` for sequential hops).
    pub slack: Percentiles,
}

/// Per-hop blame over one request population (overall or tail).
#[derive(Debug, Clone, PartialEq)]
pub struct BlameTable {
    /// Requests in this population.
    pub requests: u64,
    /// Total critical-path time across the population.
    pub critical: Span,
    /// The hop with the largest critical-path share — "where the
    /// microsecond went".
    pub critical_tier: String,
    /// Per-hop rows in canonical chain order.
    pub hops: Vec<HopBlame>,
}

impl BlameTable {
    fn build(paths: &Paths, chains: &[&ReqChain]) -> BlameTable {
        /// One hop's tallies; `chain` is the last chain counted on path.
        struct Acc {
            on_path: u64,
            ps: u64,
            slack: HdrHistogram,
            chain: usize,
        }
        fn entry(acc: &mut [Option<(Hop, Acc)>], hop: Hop) -> &mut Acc {
            let (_, a) = acc[hop.slot()].get_or_insert_with(|| {
                let slack = HdrHistogram::new();
                (hop, Acc { on_path: 0, ps: 0, slack, chain: usize::MAX })
            });
            a
        }
        let mut acc: Vec<Option<(Hop, Acc)>> = (0..Hop::SLOTS).map(|_| None).collect();
        let mut total = 0u64;
        for (n, c) in chains.iter().enumerate() {
            total += c.total;
            for &(hop, ps) in &paths.segs[c.segs.clone()] {
                let e = entry(&mut acc, hop);
                e.ps += ps;
                if e.chain != n {
                    e.on_path += 1;
                    e.chain = n;
                }
            }
            for &(shard, s) in &paths.slack[c.slack.clone()] {
                entry(&mut acc, Hop::Shard(shard)).slack.record(Span::from_ps(s));
            }
        }
        let mut critical_tier = String::new();
        let mut best = 0u64;
        for (hop, a) in acc.iter().flatten() {
            if a.ps > best {
                best = a.ps;
                critical_tier = hop.name();
            }
        }
        BlameTable {
            requests: chains.len() as u64,
            critical: Span::from_ps(total),
            critical_tier,
            hops: acc
                .into_iter()
                .flatten()
                .map(|(hop, a)| HopBlame {
                    hop: hop.name(),
                    on_path: a.on_path,
                    critical: Span::from_ps(a.ps),
                    share: if total > 0 { a.ps as f64 / total as f64 } else { 0.0 },
                    slack: Percentiles::from_histogram(&a.slack),
                })
                .collect(),
        }
    }

    fn json_into(&self, out: &mut String) {
        use fmt::Write;
        let _ = write!(
            out,
            "{{\"requests\":{},\"critical_ps\":{},\"critical_tier\":\"{}\",\"hops\":[",
            self.requests,
            self.critical.as_ps(),
            self.critical_tier,
        );
        for (i, h) in self.hops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"hop\":\"{}\",\"on_path\":{},\"critical_ps\":{},\"share\":{:.6},\"slack\":",
                h.hop,
                h.on_path,
                h.critical.as_ps(),
                h.share,
            );
            percentiles_json(&h.slack, out);
            out.push('}');
        }
        out.push_str("]}");
    }
}

/// Cross-tier critical-path blame for one run, rebuilt at harvest time
/// from the deterministic event trace.
#[derive(Debug, Clone, PartialEq)]
pub struct BlameReport {
    /// Requests observed (completed + truncated).
    pub requests: u64,
    /// Requests whose DAG reaches completion.
    pub completed: u64,
    /// Requests whose DAG ends in a terminal `cut` (shed / unfinished).
    pub truncated: u64,
    /// Blame over every request.
    pub overall: BlameTable,
    /// Blame over the slowest 1% by critical-path length (exact p99 cut,
    /// same convention as `LoadReport`'s tail blame).
    pub tail: BlameTable,
}

impl BlameReport {
    /// Rebuilds blame from a traced run's `load` events (its log's serving
    /// index); `None` when the run carried no trace or no requests.
    pub fn from_run(run: &RunReport) -> Option<BlameReport> {
        BlameReport::from_stream(run.trace.as_ref()?.events.load())
    }

    /// Rebuilds blame from raw trace events; `None` when no request ever
    /// materialized. Works on any traced run — without the causal event
    /// class the fan-out stage stays one opaque hop; with it, the join
    /// resolves to per-shard blame and slack.
    pub fn from_events(events: &[TraceEvent]) -> Option<BlameReport> {
        BlameReport::from_stream(events.iter().copied())
    }

    /// The one walk behind [`from_run`](Self::from_run) and
    /// [`from_events`](Self::from_events).
    fn from_stream(events: impl ExactSizeIterator<Item = TraceEvent>) -> Option<BlameReport> {
        let marked = by_request(events, |_| true);
        let mut paths = Paths::for_stamps(&marked);
        for req in marked.chunk_by(|a, b| a.0 == b.0) {
            walk(&ReqEvents::gather(req), &mut paths);
        }
        if paths.chains.is_empty() {
            return None;
        }
        let truncated = paths.chains.iter().filter(|c| c.truncated).count() as u64;
        let all: Vec<&ReqChain> = paths.chains.iter().collect();
        // Exact-p99 tail: sort by critical-path length (stable — equal
        // totals keep id order), cut at the p99 index LoadReport's tail
        // blame cuts at.
        let mut by_total: Vec<&ReqChain> = all.clone();
        by_total.sort_by_key(|c| c.total);
        let cut = p99_index(by_total.len());
        let tail = &by_total[cut..];
        Some(BlameReport {
            requests: all.len() as u64,
            completed: all.len() as u64 - truncated,
            truncated,
            overall: BlameTable::build(&paths, &all),
            tail: BlameTable::build(&paths, tail),
        })
    }

    /// Canonical JSON rendering — key order and float formatting are
    /// stable, so byte equality means value equality.
    pub fn to_json(&self) -> String {
        use fmt::Write;
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"requests\":{},\"completed\":{},\"truncated\":{},\"overall\":",
            self.requests, self.completed, self.truncated,
        );
        self.overall.json_into(&mut out);
        out.push_str(",\"tail_p99\":");
        self.tail.json_into(&mut out);
        out.push('}');
        out
    }

    /// A fixed-width "where did the microsecond go" waterfall table.
    pub fn to_table(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical-path blame: {} requests ({} truncated)",
            self.requests, self.truncated
        );
        let table = |out: &mut String, label: &str, t: &BlameTable| {
            let _ = writeln!(
                out,
                "{label} ({} requests, critical tier: {})",
                t.requests,
                if t.critical_tier.is_empty() { "-" } else { &t.critical_tier },
            );
            let _ = writeln!(
                out,
                "  {:<12} {:>8} {:>12} {:>7} {:>11} {:>11}",
                "hop", "on-path", "critical", "share", "slack-p50", "slack-p99"
            );
            for h in &t.hops {
                let slack = |s: Span| {
                    if h.slack.count > 0 {
                        format!("{:>9.2}us", s.as_us_f64())
                    } else {
                        format!("{:>11}", "-")
                    }
                };
                let _ = writeln!(
                    out,
                    "  {:<12} {:>8} {:>10.2}us {:>6.1}% {} {}",
                    h.hop,
                    h.on_path,
                    h.critical.as_us_f64(),
                    h.share * 100.0,
                    slack(h.slack.p50),
                    slack(h.slack.p99),
                );
            }
        };
        table(&mut out, "overall", &self.overall);
        table(&mut out, "tail p99", &self.tail);
        out
    }
}

/// Derives Perfetto flow arrows from the causal span DAG: one `fanout`
/// arrow from the fan-out stage's start to each child's start, and one
/// `join` arrow from each child's end back to the stage's end. Rendered
/// by [`kus_sim::trace::chrome_json_with_flows`], they draw the causal
/// fan-in/fan-out structure in the Chrome trace viewer. Reads only the
/// log's `load` events.
pub fn flow_arrows(log: &TraceLog) -> Vec<FlowArrow> {
    let mut arrows = Vec::new();
    let mut id = 0u64;
    let flow_marks = |m| matches!(m, Mark::Anchor(1) | Mark::Child);
    for req in by_request(log.load(), flow_marks).chunk_by(|a, b| a.0 == b.0) {
        // The request's last fan-out span, as a map keyed by request would
        // keep it, and its children in stream order.
        let Some(&(_, f)) = req.iter().rev().find(|(_, s)| s.mark == Mark::Anchor(1)) else {
            continue;
        };
        let (f_start, f_end) = (f.at, f.at + Span::from_ps(f.a1));
        for &(_, c) in req.iter().filter(|(_, s)| s.mark == Mark::Child) {
            let (c_start, c_end) = (c.at, c.at + Span::from_ps(c.a1));
            arrows.push(FlowArrow {
                id,
                name: "fanout",
                from: f_start,
                from_track: f.track,
                to: c_start,
                to_track: c.track,
            });
            arrows.push(FlowArrow {
                id: id + 1,
                name: "join",
                from: c_end,
                from_track: c.track,
                to: f_end,
                to_track: f.track,
            });
            id += 2;
        }
    }
    arrows
}

#[cfg(test)]
mod tests {
    use super::*;
    use kus_sim::Phase;
    use std::collections::BTreeMap;

    fn ev(name: EventName, phase: Phase, at_ps: u64, a0: u64, a1: u64) -> TraceEvent {
        TraceEvent {
            at: Time::from_ps(at_ps),
            cat: Category::Load,
            name,
            phase,
            track: 0,
            a0,
            a1,
        }
    }

    fn instant(name: EventName, at_ps: u64, a0: u64, a1: u64) -> TraceEvent {
        ev(name, Phase::Instant, at_ps, a0, a1)
    }

    fn span(name: EventName, at_ps: u64, a0: u64, dur_ps: u64) -> TraceEvent {
        ev(name, Phase::Complete, at_ps, a0, dur_ps)
    }

    /// A hand-built fan-out DAG whose critical path is known in closed
    /// form: queue 1000, front 500, issue 100, shard1 3400 (critical),
    /// join 500, service 1500, reply 300, host 200, tx 700 = 8200 ps.
    fn fanout_events() -> Vec<TraceEvent> {
        vec![
            instant(EventName::LoadDispatch, 2_000, 0, 1_000),
            span(EventName::RpcFront, 2_000, 0, 500),
            span(EventName::RpcHop, 2_500, 0, 1_500),          // shard0: ends 4000
            span(EventName::RpcHop, 2_600, 1, 3_400),          // shard1: ends 6000
            span(EventName::RpcHop, 2_700, 2, 2_300),          // shard2: ends 5000
            span(EventName::RpcFanout, 2_500, 0, 4_000),       // ends 6500
            span(EventName::RpcService, 6_500, 0, 1_500),      // ends 8000
            span(EventName::RpcReply, 8_000, 0, 300),          // ends 8300
            instant(EventName::LoadComplete, 8_500, 0, 1_000),
            instant(EventName::NetTx, 8_500, 0, 700),
        ]
    }

    #[test]
    fn closed_form_fanout_critical_path() {
        let r = BlameReport::from_events(&fanout_events()).expect("one request");
        assert_eq!(r.requests, 1);
        assert_eq!(r.completed, 1);
        assert_eq!(r.truncated, 0);
        assert_eq!(r.overall.critical, Span::from_ps(8_200));
        assert_eq!(r.overall.critical_tier, "rpc.shard1");
        let by_hop: BTreeMap<&str, u64> = r
            .overall
            .hops
            .iter()
            .map(|h| (h.hop.as_str(), h.critical.as_ps()))
            .collect();
        assert_eq!(by_hop["queue"], 1_000);
        assert_eq!(by_hop["rpc.front"], 500);
        assert_eq!(by_hop["rpc.fanout"], 100);
        assert_eq!(by_hop["rpc.shard1"], 3_400);
        assert_eq!(by_hop["rpc.join"], 500);
        assert_eq!(by_hop["rpc.service"], 1_500);
        assert_eq!(by_hop["rpc.reply"], 300);
        assert_eq!(by_hop["host"], 200);
        assert_eq!(by_hop["rpc.tx"], 700);
        // Slack: shard0 finished 2000 ps early, shard2 1000 ps early,
        // the critical shard1 has zero slack.
        let slack: BTreeMap<&str, Span> =
            r.overall.hops.iter().filter(|h| h.slack.count > 0).map(|h| (h.hop.as_str(), h.slack.max)).collect();
        assert_eq!(slack["rpc.shard0"], Span::from_ps(2_000));
        assert_eq!(slack["rpc.shard1"], Span::from_ps(0));
        assert_eq!(slack["rpc.shard2"], Span::from_ps(1_000));
        // Single request: the tail is the same population.
        assert_eq!(r.tail.critical, r.overall.critical);
    }

    #[test]
    fn shed_requests_are_truncated_cut_dags() {
        let mut events = fanout_events();
        // Request 1 arrives at 4000 and is shed at 5000: a 1000 ps DAG
        // ending in `cut`.
        events.push(instant(EventName::LoadShed, 5_000, 1, 4_000));
        let r = BlameReport::from_events(&events).expect("two requests");
        assert_eq!(r.requests, 2);
        assert_eq!(r.completed, 1);
        assert_eq!(r.truncated, 1);
        let cut = r.overall.hops.iter().find(|h| h.hop == "cut").expect("cut hop");
        assert_eq!(cut.critical, Span::from_ps(1_000));
        assert_eq!(cut.on_path, 1);
        assert_eq!(r.overall.critical, Span::from_ps(9_200));
    }

    #[test]
    fn net_stages_chain_ahead_of_the_queue() {
        let events = vec![
            instant(EventName::NetArrival, 0, 7, 0),
            instant(EventName::NetWire, 0, 7, 20_000),
            instant(EventName::NetRxWait, 0, 7, 0),
            instant(EventName::NetNic, 0, 7, 400_000),
            instant(EventName::NetSteer, 0, 7, 40_000),
            instant(EventName::LoadDispatch, 3_000_000, 7, 460_000),
            instant(EventName::LoadComplete, 5_000_000, 7, 460_000),
            instant(EventName::NetTx, 5_000_000, 7, 500_000),
        ];
        let r = BlameReport::from_events(&events).expect("one request");
        assert_eq!(r.overall.critical, Span::from_ps(5_500_000));
        let by_hop: BTreeMap<&str, u64> = r
            .overall
            .hops
            .iter()
            .map(|h| (h.hop.as_str(), h.critical.as_ps()))
            .collect();
        assert_eq!(by_hop["net.nic"], 400_000);
        assert_eq!(by_hop["queue"], 2_540_000);
        assert_eq!(by_hop["service"], 2_000_000);
        assert_eq!(by_hop["rpc.tx"], 500_000);
        assert!(!by_hop.contains_key("host"));
    }

    #[test]
    fn json_is_stable_and_self_described() {
        let r = BlameReport::from_events(&fanout_events()).expect("one request");
        let json = r.to_json();
        assert!(json.starts_with("{\"requests\":1,\"completed\":1,\"truncated\":0,"));
        assert!(json.contains("\"critical_tier\":\"rpc.shard1\""));
        assert!(json.contains("\"tail_p99\":"));
        assert_eq!(json, BlameReport::from_events(&fanout_events()).unwrap().to_json());
        let table = r.to_table();
        assert!(table.contains("critical tier: rpc.shard1"));
        assert!(table.contains("rpc.shard1"));
    }

    #[test]
    fn empty_trace_means_no_report() {
        assert!(BlameReport::from_events(&[]).is_none());
    }

    #[test]
    fn flow_arrows_pair_fanout_and_join() {
        let arrows = flow_arrows(&TraceLog::from(fanout_events()));
        // Three children → three fanout arrows + three join arrows.
        assert_eq!(arrows.len(), 6);
        assert_eq!(arrows.iter().filter(|a| a.name == "fanout").count(), 3);
        assert_eq!(arrows.iter().filter(|a| a.name == "join").count(), 3);
        // Fanout arrows leave the stage start; join arrows land on its end.
        for a in &arrows {
            match a.name {
                "fanout" => assert_eq!(a.from, Time::from_ps(2_500)),
                _ => assert_eq!(a.to, Time::from_ps(6_500)),
            }
        }
        // Ids are unique and deterministic.
        let mut ids: Vec<u64> = arrows.iter().map(|a| a.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 6);
    }
}
