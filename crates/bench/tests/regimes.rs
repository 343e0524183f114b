//! The regime table: every distinct cell of the Sched × Codec × RunMode
//! × Latency grid, converged once through [`run_cell`] and pinned in
//! `fixtures/regimes.tsv`. At 2,000 documents on 16 peers (above the
//! selective schedulers' bypass), ε 1e-4, seed 2003: 3 engine cells, 6
//! rounds cells (3 scheds × raw, compact frames) and those six chaotic
//! under each latency — 27 distinct cells, as latency is not an axis of
//! rounds (a law below). Twelve chaotic cells at 100 peers (below the
//! bypass) complete the table's 39 rows.
//!
//! A row pins the rank bits' FNV-1a, `schedule_fnv`, steps,
//! deliveries, `virtual_ns`, remote messages and wire bytes. On a
//! mismatch the test writes `$CARGO_TARGET_TMPDIR/regimes.observed.tsv`
//! and names the first differing row and column; to move rows on
//! purpose, copy that file over the fixture and say which moved and why.
//! Pins on paths no cell runs stay beside them: the served-run pin in
//! `serving_differential.rs` (serving plus churn), the two hand-stepped
//! `PeerNode` message-order fingerprints in `sched_differential.rs`,
//! the 500-document sequential-engine fingerprint in
//! `kernel_reference.rs`, and the two Capture v3 fixtures
//! `audit_differential.rs` replays.

use dpr_bench::{run_cell, Cell};
use dpr_core::{RunMode, SchedMode};
use dpr_p2p::transport::WireCodec::{self, Compact, Raw};
use dpr_sim::event::LatencyModel;
use dpr_sim::spec::{Layer, ScenarioSpec};
use dpr_sim::Workload;
use dpr_telemetry::replay::fnv64_ranks;
use std::path::Path;
use LatencyModel::{Broadband, Lan, Modem};
use RunMode::{Chaotic, Rounds};
use SchedMode::{Greedy, Pass, Priority};

const EPSILON: f64 = 1e-4;
const SCHEDS: [SchedMode; 3] = [Pass, Priority, Greedy];
/// The frame codecs, and below the distinct run mode × latency pairs,
/// in row order.
const CODECS: [WireCodec; 2] = [Raw, Compact];
#[rustfmt::skip]
const MODES: [(RunMode, LatencyModel); 4] = [(Rounds, Broadband), (Chaotic, Lan), (Chaotic, Broadband), (Chaotic, Modem)];
/// Columns that name a row; the seven pinned values follow.
const KEY: usize = 6;
const HEADER: &str = "peers\trun_mode\tlatency\tsched\twire\tcodec\trank_fnv\tschedule_fnv\t\
                      steps\tdeliveries\tvirtual_ns\tremote_messages\twire_bytes\n";

fn spec(w: &Workload, s: SchedMode, c: WireCodec, m: RunMode, l: LatencyModel) -> ScenarioSpec {
    let mut x = ScenarioSpec::new(w.graph.num_nodes(), w.num_peers, EPSILON, 2003);
    (x.sched, x.codec, x.run_mode, x.latency) = (s, c, m, l);
    x
}

/// A cell's row.
fn line(c: &Cell) -> String {
    let key = [&c.run_mode, &c.latency, &c.sched, &c.wire, &c.codec].map(|k| k.as_str());
    let counts = [c.steps, c.deliveries, c.virtual_ns];
    let counts = [&counts[..], &[c.remote_messages, c.wire_bytes]].concat();
    let counts: Vec<String> = counts.iter().map(u64::to_string).collect();
    let (peers, key, counts) = (c.peers, key.join("\t"), counts.join("\t"));
    let (fnv, schedule) = (fnv64_ranks(&c.ranks), c.schedule_fnv);
    format!("{peers}\t{key}\t{fnv:#018x}\t{schedule:#018x}\t{counts}\n")
}

/// The seven pinned values of a row.
fn pinned(row: &str) -> &str {
    row.splitn(KEY + 1, '\t').last().unwrap_or_default()
}

/// Checks `observed` against `expected`. On a mismatch, writes
/// `observed` to `out` and names the first differing row and column.
fn compare(expected: &str, observed: &str, out: &Path) -> Result<(), String> {
    if expected == observed {
        return Ok(());
    }
    std::fs::write(out, observed).map_err(|e| format!("{}: {e}", out.display()))?;
    let fields = |t: &str, i| -> Vec<String> {
        let line = t.lines().nth(i).unwrap_or_default();
        line.split('\t').map(String::from).collect()
    };
    let n = expected.lines().count().max(observed.lines().count());
    let i = (0..n).find(|&i| fields(expected, i) != fields(observed, i));
    let i = i.unwrap_or(n);
    let (want, got) = (fields(expected, i), fields(observed, i));
    let col = (0..want.len().max(got.len())).find(|&c| want.get(c) != got.get(c));
    let col = col.unwrap_or_default();
    let name = HEADER.trim_end().split('\t').nth(col).unwrap_or("(extra)");
    let key = if want.len() > KEY { &want } else { &got };
    let (row, line, out) = (key[..KEY.min(key.len())].join(" "), i + 1, out.display());
    let (want, got) = (want.get(col), got.get(col));
    Err(format!(
        "row `{row}` (line {line}), column {name}: expected {want:?}, observed {got:?}; \
         the observed table is at {out}"
    ))
}

/// The twelve chaotic cells at 100 peers, as (row, L1/doc off the
/// synchronous solution).
fn sparse_rows() -> Vec<(String, f64)> {
    let w = Workload::paper(2_000, 100, 2003);
    let at = |l, s, c| run_cell(&w, Layer::Cluster, &spec(&w, s, c, Chaotic, l));
    let cells = [Broadband, Modem].map(|l| SCHEDS.map(|s| [Raw, Compact].map(|c| at(l, s, c))));
    let cells = cells.iter().flatten().flatten();
    cells.map(|c| (line(c), c.l1_per_doc_vs_sync)).collect()
}

/// Re-runs the rounds cells of `w` along the latency axis they do not
/// have, and asserts each reproduces its row. (That a live recorder
/// leaves every layer's run alone is `tests/telemetry_differential.rs`'s
/// table over `ScenarioSpec::run`, which `run_cell` drives.)
fn rerun_cells(w: &Workload) {
    let at = |sched, l| run_cell(w, Layer::Cluster, &spec(w, sched, Raw, Rounds, l));
    for sched in SCHEDS {
        // Rounds deliver at the barrier, so latency cannot reach them.
        assert_eq!(line(&at(sched, Broadband)), line(&at(sched, Modem)));
    }
}

#[test]
fn every_cell_matches_its_row_and_the_laws_hold() {
    let w = Workload::paper(2_000, 16, 2003);
    let at = |sched, codec, mode, l| run_cell(&w, Layer::Cluster, &spec(&w, sched, codec, mode, l));
    let rounds = |sched, codec| at(sched, codec, Rounds, Broadband);
    let engine = SCHEDS.map(|s| run_cell(&w, Layer::Engine, &spec(&w, s, Raw, Rounds, Broadband)));
    let mut cells = engine.to_vec();
    // The 100-peer rows converge on a second core meanwhile.
    let sparse = std::thread::scope(|scope| {
        let sparse = scope.spawn(sparse_rows);
        for (mode, l) in MODES {
            for sched in SCHEDS {
                cells.extend(CODECS.map(|codec| at(sched, codec, mode, l)));
            }
        }
        rerun_cells(&w);
        sparse.join().expect("100-peer rows")
    });
    let dense = cells.iter().map(|c| (line(c), c.l1_per_doc_vs_sync));
    let rows: Vec<_> = dense.chain(sparse).collect();
    let observed = rows.iter().fold(HEADER.to_string(), |t, r| t + &r.0);
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("regimes.observed.tsv");
    if let Err(e) = compare(include_str!("fixtures/regimes.tsv"), &observed, &out) {
        panic!("{e}");
    }

    // `run_cell` has asserted that every cell converged or quiesced,
    // and that Safra announced every chaotic one.
    for (row, gap) in &rows {
        assert!(*gap <= 10.0 * EPSILON, "{gap:e}/doc off sync: {row}");
    }
    for sched in SCHEDS {
        let [raw, compact] = CODECS.map(|codec| rounds(sched, codec));
        // Compact carries ≤ 0.70× raw's bytes, and stays within 1e-7/doc
        // of raw where its f32 rounding leaves the selection alone.
        assert!(10 * compact.wire_bytes <= 7 * raw.wire_bytes, "{sched}");
        let drift = compact.versus(&raw).1;
        assert!(sched == Greedy || drift <= 1e-7, "{sched}: {drift:e}/doc");
        for codec in CODECS {
            assert!(rounds(sched, codec).remote_messages <= rounds(Pass, codec).remote_messages);
        }
    }
    // Above the bypass Greedy and Priority select differently; below it
    // (the 100-peer rows, six per latency) they are one schedule.
    let values = |c: &Cell| pinned(&line(c)).to_string();
    assert_ne!(values(&engine[1]), values(&engine[2]));
    for (mode, l) in MODES {
        for codec in CODECS {
            let [g, p] = [Greedy, Priority].map(|sched| values(&at(sched, codec, mode, l)));
            assert_ne!(g, p, "{mode} {l}");
        }
    }
    for six in rows[cells.len()..].chunks(6) {
        let [p, g] = [2, 4].map(|i| [&six[i].0, &six[i + 1].0].map(|r| pinned(r)));
        assert_eq!(p, g);
    }
}

/// A doctored expected table is reported by its first differing row
/// and column, and the observed table is written for regeneration.
#[test]
fn a_mismatch_names_the_first_differing_row_and_column() {
    let observed = include_str!("fixtures/regimes.tsv");
    let key = "16\tchaotic\tmodem\tpass\tframes\traw\t";
    let expected = observed.replacen(key, &format!("{key}1"), 1);
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("regimes.doctored.tsv");
    let _ = std::fs::remove_file(&out);
    let err = compare(&expected, observed, &out).unwrap_err();
    let named = "row `16 chaotic modem pass frames raw` (line 23), column rank_fnv";
    assert!(err.starts_with(named), "{err}");
    assert_eq!(std::fs::read_to_string(&out).unwrap(), observed);
    assert_eq!(compare(observed, observed, &out), Ok(()));
}
