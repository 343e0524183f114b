//! Online invariant auditing over the event stream — the flight
//! recorder's analysis half.
//!
//! Three monitors own the protocol's silent invariants:
//!
//! * **Mass conservation** — every protocol step (apply, advertise,
//!   send, deliver) preserves the potential
//!   `Φ = ranks + d/(1−d)·unadvertised + 1/(1−d)·(pending +
//!   in-flight) + d/(1−d)·dangling`, so each [`Event::MassLedger`]
//!   snapshot must
//!   match the `expected` value captured at run start up to float
//!   summation noise. A payload whose rank value is corrupted in
//!   flight breaks this and nothing else.
//! * **Message balance** — entries can never *materialize*: at every
//!   [`Event::BalanceLedger`] snapshot, `received + in-flight ≤ sent`
//!   (globally and per peer). A duplicated delivery trips it at the
//!   round (and peer) of the duplication. Entries still *in transit*
//!   (`sent > received + in-flight` would mean loss, but mid-run the
//!   balance auditor cannot distinguish transit delay in a real
//!   asynchronous deployment) are the quiescence certifier's job.
//! * **Quiescence certification** — when the run claims termination
//!   ([`Event::QuiescenceCert`], or a Safra probe announcing), nothing
//!   may be outstanding: no in-flight or parked payloads, no queued
//!   work, Safra token `Σ sent − Σ received = 0`, and no residual
//!   above ε. A silently dropped payload leaves the token positive
//!   forever and is caught exactly here.
//!
//! The monitors overlap by nature (a duplicated frame also injects
//! mass), so [`AuditReport::primary`] attributes a failure to the
//! *deepest* violated invariant — balance before quiescence before
//! mass — which maps each of the three canonical transport faults to
//! the monitor that owns it.

use crate::event::Event;
use crate::fmt::fmt_f64;
use crate::metric::Metric;
use crate::recorder::{NoopRecorder, Recorder};
use crate::table::TextTable;
use std::sync::{Arc, Mutex};

/// Relative float tolerance of the mass-conservation check, scaled by
/// `max(|expected|, 1)`. Ledger sums fold millions of doubles, but the
/// relative error of those folds is orders of magnitude below this;
/// any real corruption clears it by orders of magnitude the other way.
pub const MASS_TOLERANCE: f64 = 1e-9;

/// Mass tolerance for runs under the *compact* wire codec. Compact
/// quantizes each update to `f32` on the wire while senders keep f64
/// books, so Φ legitimately drifts by the accumulated quantization
/// error (~1.2e-7 relative per update) — far above [`MASS_TOLERANCE`]
/// but still orders of magnitude below any real conservation bug.
pub const COMPACT_MASS_TOLERANCE: f64 = 1e-6;

/// One subsystem's summed mass-ledger terms, produced at a pass or
/// round boundary by the engine or a peer node. The audit potential
/// over a breakdown plus the in-flight wire mass is
/// `Φ = ranks + d/(1−d)·unadvertised + (pending + in_flight)/(1−d) +
/// d/(1−d)·dangling`; every protocol step preserves it, so emitters
/// fold their state into this struct and [`phi`] is the single place
/// the formula lives.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MassBreakdown {
    /// Σ rank over documents.
    pub ranks: f64,
    /// Σ (rank − advertised): applied but not yet advertised mass.
    pub unadvertised: f64,
    /// Σ pending: parked increments not yet applied.
    pub pending: f64,
    /// Cumulative advertised delta of dangling (out-degree 0)
    /// documents — the mass the damping sink has absorbed.
    pub dangling: f64,
}

impl MassBreakdown {
    /// Folds another subsystem's terms into this one.
    pub fn merge(&mut self, other: MassBreakdown) {
        self.ranks += other.ranks;
        self.unadvertised += other.unadvertised;
        self.pending += other.pending;
        self.dangling += other.dangling;
    }

    /// The [`Event::MassLedger`] snapshot for this breakdown.
    pub fn ledger_event(
        &self,
        run: &str,
        step: u64,
        in_flight: f64,
        damping: f64,
        expected: f64,
    ) -> Event {
        Event::MassLedger {
            run: run.to_string(),
            step,
            ranks: self.ranks,
            unadvertised: self.unadvertised,
            pending: self.pending,
            in_flight,
            dangling: self.dangling,
            damping,
            expected,
        }
    }
}

/// The conserved audit potential (see [`MassBreakdown`]).
pub fn phi(
    ranks: f64,
    unadvertised: f64,
    pending: f64,
    in_flight: f64,
    dangling: f64,
    damping: f64,
) -> f64 {
    let amp = damping / (1.0 - damping);
    ranks + amp * unadvertised + (pending + in_flight) / (1.0 - damping) + amp * dangling
}

/// The recorder of an audited run: keeps, in stream order, only the
/// events [`AuditReport::evaluate`] reads, and forwards everything to
/// its sink. Always enabled, so the run emits every ledger; detailed
/// only if its sink is, so a sinkless trail costs no spans, frame
/// events or wire metrics, and a trail over a
/// [`crate::TraceRecorder`] emits exactly what that recorder would.
pub struct AuditTrail {
    kept: Mutex<Vec<Event>>,
    sink: Arc<dyn Recorder>,
}

impl AuditTrail {
    /// A trail forwarding to `sink`, if any.
    pub fn new(sink: Option<Arc<dyn Recorder>>) -> Self {
        AuditTrail {
            kept: Mutex::default(),
            sink: sink.unwrap_or_else(|| Arc::new(NoopRecorder)),
        }
    }

    /// Takes the events kept so far, leaving the trail empty.
    pub fn take_events(&self) -> Vec<Event> {
        std::mem::take(&mut self.kept.lock().expect("audit trail lock poisoned"))
    }
}

impl Recorder for AuditTrail {
    fn enabled(&self) -> bool {
        true
    }

    fn detailed(&self) -> bool {
        self.sink.detailed()
    }

    fn event(&self, event: &Event) {
        self.sink.event(event);
        let audited = match event {
            Event::TerminationProbe { announced, .. } => *announced,
            _ => matches!(
                event.kind(),
                "mass_ledger" | "balance_ledger" | "quiescence_cert"
            ),
        };
        if audited {
            let mut kept = self.kept.lock().expect("audit trail lock poisoned");
            kept.push(event.clone());
        }
    }

    fn counter_add(&self, metric: Metric, delta: u64) {
        self.sink.counter_add(metric, delta);
    }

    fn observe(&self, metric: Metric, value: u64) {
        self.sink.observe(metric, value);
    }
}

/// The invariant monitors, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Monitor {
    /// The mass-conservation ledger over `mass_ledger` snapshots.
    MassConservation,
    /// The message-balance auditor over `balance_ledger` snapshots.
    MessageBalance,
    /// The quiescence certifier over `quiescence_cert` /
    /// `termination_probe` events.
    Quiescence,
}

impl Monitor {
    /// Stable short name (used in tables and test assertions).
    pub fn name(self) -> &'static str {
        match self {
            Monitor::MassConservation => "mass-conservation",
            Monitor::MessageBalance => "message-balance",
            Monitor::Quiescence => "quiescence",
        }
    }
}

impl std::fmt::Display for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The first violation a monitor observed.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Pass or round index of the violating snapshot.
    pub step: u64,
    /// Engine-run label, when the snapshot carries one.
    pub run: Option<String>,
    /// The peer localized as first violating, when the invariant is
    /// per-peer localizable.
    pub peer: Option<u32>,
    /// Human-readable account of what was off and by how much.
    pub detail: String,
}

/// One monitor's verdict over a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorFinding {
    /// Which monitor.
    pub monitor: Monitor,
    /// Snapshots the monitor evaluated (0 means the trace never
    /// exercised this invariant — reported as such, not as a pass).
    pub checked: u64,
    /// The first violation, if any.
    pub violation: Option<Violation>,
}

impl MonitorFinding {
    fn new(monitor: Monitor) -> Self {
        MonitorFinding {
            monitor,
            checked: 0,
            violation: None,
        }
    }

    /// `"ok"`, `"FAIL"`, or `"n/a"` (never exercised).
    pub fn status(&self) -> &'static str {
        if self.violation.is_some() {
            "FAIL"
        } else if self.checked == 0 {
            "n/a"
        } else {
            "ok"
        }
    }

    fn record(&mut self, v: Violation) {
        if self.violation.is_none() {
            self.violation = Some(v);
        }
    }
}

/// The full audit verdict over one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    findings: Vec<MonitorFinding>,
}

impl AuditReport {
    /// Runs every monitor over `events` in stream order at the default
    /// (raw-codec, bit-exact) mass tolerance.
    pub fn evaluate(events: &[Event]) -> Self {
        Self::evaluate_with_mass_tolerance(events, MASS_TOLERANCE)
    }

    /// Runs every monitor with an explicit mass-conservation
    /// tolerance — [`COMPACT_MASS_TOLERANCE`] for traces recorded
    /// under the compact wire codec.
    pub fn evaluate_with_mass_tolerance(events: &[Event], mass_tolerance: f64) -> Self {
        let mut mass = MonitorFinding::new(Monitor::MassConservation);
        let mut balance = MonitorFinding::new(Monitor::MessageBalance);
        let mut quiescence = MonitorFinding::new(Monitor::Quiescence);

        for e in events {
            match e {
                Event::MassLedger {
                    run,
                    step,
                    ranks,
                    unadvertised,
                    pending,
                    in_flight,
                    dangling,
                    damping,
                    expected,
                } => {
                    mass.checked += 1;
                    let phi = phi(
                        *ranks,
                        *unadvertised,
                        *pending,
                        *in_flight,
                        *dangling,
                        *damping,
                    );
                    let tol = mass_tolerance * expected.abs().max(1.0);
                    if (phi - expected).abs() > tol {
                        mass.record(Violation {
                            step: *step,
                            run: Some(run.clone()),
                            peer: None,
                            detail: format!(
                                "Φ = {} drifted from expected {} by {} (tolerance {})",
                                fmt_f64(phi),
                                fmt_f64(*expected),
                                fmt_f64(phi - expected),
                                fmt_f64(tol),
                            ),
                        });
                    }
                }
                Event::BalanceLedger {
                    round,
                    sent,
                    received,
                    in_flight_entries,
                    skew_peer,
                    skew,
                    ..
                } => {
                    balance.checked += 1;
                    // In u128: the three counters are untrusted input.
                    let surplus = (u128::from(*received) + u128::from(*in_flight_entries))
                        .saturating_sub(u128::from(*sent));
                    if *skew < 0 || surplus > 0 {
                        balance.record(Violation {
                            step: *round,
                            run: None,
                            peer: (*skew < 0).then_some(*skew_peer),
                            detail: if *skew < 0 {
                                format!(
                                    "peer {} received {} more entr{} than were ever \
                                     addressed to it (duplication)",
                                    skew_peer,
                                    skew.unsigned_abs(),
                                    if *skew == -1 { "y" } else { "ies" },
                                )
                            } else {
                                format!(
                                    "received {received} + in-flight {in_flight_entries} \
                                     exceeds sent {sent} by {surplus} (duplication)"
                                )
                            },
                        });
                    }
                }
                Event::QuiescenceCert {
                    round,
                    in_flight_entries,
                    parked,
                    nodes_with_work,
                    token,
                    max_residual,
                    epsilon,
                } => {
                    quiescence.checked += 1;
                    let mut bad: Vec<String> = Vec::new();
                    if *in_flight_entries != 0 {
                        bad.push(format!("{in_flight_entries} entries still in flight"));
                    }
                    if *parked != 0 {
                        bad.push(format!("{parked} payloads still parked"));
                    }
                    if *nodes_with_work != 0 {
                        bad.push(format!("{nodes_with_work} nodes still hold work"));
                    }
                    if *token != 0 {
                        bad.push(format!("Safra token Σsent − Σreceived = {token}, not 0"));
                    }
                    if *max_residual > *epsilon {
                        bad.push(format!(
                            "residual {} above ε = {}",
                            fmt_f64(*max_residual),
                            fmt_f64(*epsilon),
                        ));
                    }
                    if !bad.is_empty() {
                        quiescence.record(Violation {
                            step: *round,
                            run: None,
                            peer: None,
                            detail: format!("termination claimed while {}", bad.join("; ")),
                        });
                    }
                }
                Event::TerminationProbe {
                    round,
                    announced: true,
                    invariant,
                    ..
                } => {
                    quiescence.checked += 1;
                    if *invariant != 0 {
                        quiescence.record(Violation {
                            step: *round,
                            run: None,
                            peer: None,
                            detail: format!(
                                "Safra announced termination with invariant \
                                 Σsent − Σreceived = {invariant}, not 0"
                            ),
                        });
                    }
                }
                _ => {}
            }
        }

        AuditReport {
            findings: vec![mass, balance, quiescence],
        }
    }

    /// The finding of one monitor.
    pub fn finding(&self, m: Monitor) -> &MonitorFinding {
        self.findings
            .iter()
            .find(|f| f.monitor == m)
            .expect("every monitor has a finding")
    }

    /// Snapshots audited, summed over the monitors: 0 for a trace that
    /// holds no ledger snapshot, which proves nothing either way.
    pub fn checked(&self) -> u64 {
        self.findings.iter().map(|f| f.checked).sum()
    }

    /// Whether every monitor held.
    pub fn passed(&self) -> bool {
        self.findings.iter().all(|f| f.violation.is_none())
    }

    /// The violated monitor the failure is *attributed* to, by
    /// precedence balance > quiescence > mass (see module docs): a
    /// balance surplus explains any mass drift (duplication), an
    /// unclean termination explains loss, and only an otherwise clean
    /// ledger drift points at in-flight value corruption.
    pub fn primary(&self) -> Option<&MonitorFinding> {
        [
            Monitor::MessageBalance,
            Monitor::Quiescence,
            Monitor::MassConservation,
        ]
        .iter()
        .map(|&m| self.finding(m))
        .find(|f| f.violation.is_some())
    }

    /// One-sentence verdict naming the suspected fault archetype.
    pub fn diagnosis(&self) -> String {
        let Some(f) = self.primary() else {
            return format!("all invariants held ({} snapshots audited)", self.checked());
        };
        let v = f.violation.as_ref().expect("primary is violated");
        let locus = match (&v.run, v.peer) {
            (Some(run), Some(p)) => format!("{run} step {} peer {p}", v.step),
            (Some(run), None) => format!("{run} step {}", v.step),
            (None, Some(p)) => format!("round {} peer {p}", v.step),
            (None, None) => format!("round {}", v.step),
        };
        let suspect = match f.monitor {
            Monitor::MessageBalance => "a duplicated delivery (dup-frame)",
            Monitor::Quiescence => "an update lost in transit (lost-frame)",
            Monitor::MassConservation => "rank mass corrupted in flight (mass-leak)",
        };
        format!(
            "{} violated at {locus}: {} — consistent with {suspect}",
            f.monitor, v.detail
        )
    }

    /// Renders the pass/fail diagnosis table.
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(["monitor", "checked", "status", "first violation"]);
        for f in &self.findings {
            let first = match &f.violation {
                Some(v) => {
                    let locus = match (&v.run, v.peer) {
                        (Some(run), _) => format!("{run} step {}", v.step),
                        (None, Some(p)) => format!("round {} peer {p}", v.step),
                        (None, None) => format!("round {}", v.step),
                    };
                    format!("{locus}: {}", v.detail)
                }
                None => "-".to_string(),
            };
            t.push([
                f.monitor.name().to_string(),
                f.checked.to_string(),
                f.status().to_string(),
                first,
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(step: u64, leak: f64) -> Event {
        // A consistent d = 0.85 snapshot: Φ == expected when leak = 0.
        let (d, ranks, unadv, pending, in_flight) = (0.85, 40.0, 3.0, 4.0, 2.0);
        Event::MassLedger {
            run: "cluster".into(),
            step,
            ranks,
            unadvertised: unadv,
            pending,
            in_flight: in_flight + leak,
            dangling: 0.0,
            damping: d,
            expected: ranks + d / (1.0 - d) * unadv + (pending + in_flight) / (1.0 - d),
        }
    }

    fn balance(round: u64, sent: u64, received: u64, in_flight: u64, skew: i64) -> Event {
        Event::BalanceLedger {
            round,
            emitted: sent,
            sent,
            received,
            in_flight_entries: in_flight,
            skew_peer: 7,
            skew,
        }
    }

    fn cert(token: i64, in_flight: u64) -> Event {
        Event::QuiescenceCert {
            round: 30,
            in_flight_entries: in_flight,
            parked: 0,
            nodes_with_work: 0,
            token,
            max_residual: 1e-4,
            epsilon: 1e-3,
        }
    }

    #[test]
    fn clean_trace_passes_every_monitor() {
        let r = AuditReport::evaluate(&[
            ledger(1, 0.0),
            ledger(2, 0.0),
            balance(1, 10, 4, 6, 0),
            balance(2, 12, 12, 0, 0),
            cert(0, 0),
        ]);
        assert!(r.passed(), "{}", r.diagnosis());
        assert!(r.primary().is_none());
        assert_eq!(r.finding(Monitor::MassConservation).checked, 2);
        assert_eq!(r.finding(Monitor::MassConservation).status(), "ok");
        assert!(r.diagnosis().contains("all invariants held"));
        assert!(r.render().render().contains("mass-conservation"));
    }

    #[test]
    fn unexercised_monitors_report_na() {
        let r = AuditReport::evaluate(&[]);
        assert!(r.passed());
        for f in &r.findings {
            assert_eq!(f.status(), "n/a");
        }
    }

    #[test]
    fn mass_drift_fires_the_ledger() {
        let r = AuditReport::evaluate(&[ledger(1, 0.0), ledger(2, 0.5), cert(0, 0)]);
        assert!(!r.passed());
        let f = r.primary().unwrap();
        assert_eq!(f.monitor, Monitor::MassConservation);
        let v = f.violation.as_ref().unwrap();
        assert_eq!(v.step, 2);
        assert_eq!(v.run.as_deref(), Some("cluster"));
        assert!(r.diagnosis().contains("mass-leak"), "{}", r.diagnosis());
    }

    #[test]
    fn entry_surplus_fires_balance_and_wins_attribution() {
        // Duplication: peer 7 over-received, and the mass ledger also
        // drifts — attribution must still blame the balance auditor.
        let r = AuditReport::evaluate(&[ledger(1, 0.3), balance(1, 10, 8, 3, -1), cert(-1, 0)]);
        assert!(!r.passed());
        let f = r.primary().unwrap();
        assert_eq!(f.monitor, Monitor::MessageBalance);
        assert_eq!(f.violation.as_ref().unwrap().peer, Some(7));
        assert_eq!(f.violation.as_ref().unwrap().step, 1);
        assert!(r.diagnosis().contains("dup-frame"), "{}", r.diagnosis());
    }

    #[test]
    fn transit_deficit_alone_is_not_a_balance_violation() {
        // sent > received + in-flight: loss, or just transit delay —
        // the balance auditor stays quiet; the certifier catches it.
        let r = AuditReport::evaluate(&[balance(1, 10, 4, 2, 4), cert(4, 0)]);
        assert_eq!(
            r.finding(Monitor::MessageBalance).violation,
            None,
            "deficit is the certifier's job"
        );
        let f = r.primary().unwrap();
        assert_eq!(f.monitor, Monitor::Quiescence);
        assert!(r.diagnosis().contains("lost-frame"), "{}", r.diagnosis());
    }

    #[test]
    fn certifier_checks_every_clause() {
        for bad in [
            cert(0, 3),
            Event::QuiescenceCert {
                round: 9,
                in_flight_entries: 0,
                parked: 2,
                nodes_with_work: 0,
                token: 0,
                max_residual: 0.0,
                epsilon: 1e-3,
            },
            Event::QuiescenceCert {
                round: 9,
                in_flight_entries: 0,
                parked: 0,
                nodes_with_work: 1,
                token: 0,
                max_residual: 5e-3,
                epsilon: 1e-3,
            },
        ] {
            let r = AuditReport::evaluate(&[bad]);
            assert_eq!(r.primary().unwrap().monitor, Monitor::Quiescence);
        }
    }

    #[test]
    fn the_trail_keeps_what_the_monitors_read_and_forwards_everything() {
        let probe = |announced| Event::TerminationProbe {
            round: 3,
            circuits: 1,
            token_count: 0,
            token_black: false,
            announced,
            invariant: 0,
        };
        let stream = [
            ledger(1, 0.0),
            Event::DocInserted { seq: 1, doc: 2 },
            balance(1, 10, 4, 6, 0),
            probe(false),
            probe(true),
            cert(0, 0),
        ];
        let sink = Arc::new(crate::TraceRecorder::new());
        let trail = AuditTrail::new(Some(sink.clone()));
        for e in &stream {
            trail.event(e);
        }
        trail.counter_add(Metric::RemoteUpdates, 5);
        assert_eq!(sink.events(), stream);
        assert_eq!(sink.counter(Metric::RemoteUpdates), 5);
        let kept = trail.take_events();
        assert_eq!(
            kept,
            [&stream[0], &stream[2], &stream[4], &stream[5]].map(Clone::clone)
        );
        assert_eq!(AuditReport::evaluate(&kept), AuditReport::evaluate(&stream));
        assert!(trail.take_events().is_empty(), "taking empties the trail");
    }

    #[test]
    fn announced_safra_probe_with_nonzero_invariant_fires() {
        let r = AuditReport::evaluate(&[Event::TerminationProbe {
            round: 12,
            circuits: 3,
            token_count: 0,
            token_black: false,
            announced: true,
            invariant: 2,
        }]);
        assert_eq!(r.primary().unwrap().monitor, Monitor::Quiescence);
        // An unannounced probe with in-flight messages is normal.
        let ok = AuditReport::evaluate(&[Event::TerminationProbe {
            round: 3,
            circuits: 1,
            token_count: 5,
            token_black: true,
            announced: false,
            invariant: 5,
        }]);
        assert!(ok.passed());
    }
}
