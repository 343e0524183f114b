//! The shape of a workload and the two drivers that run one: the
//! untraced run that yields the end-to-end metrics, and the traced run
//! that yields the per-layer ledger.

use crate::common::{median, Ledger};
use crate::host;
use crate::trace::Tracer;
use serde_json::Value;
use std::time::{Duration, Instant};

/// One workload. `setup` builds the inputs from the seed, `run` is the
/// timed region and hands the program under test only those inputs,
/// `verify` checks the outputs after the clock has stopped.
pub trait Bench {
    type Input;
    type Output;

    /// The workload's parameters, for the provenance record.
    fn params(&self) -> Value;

    /// Builds the inputs. With a live tracer the construction runs
    /// piece by piece under spans and records the build metrics.
    fn setup(&mut self, seed: u64, tr: &mut Tracer, ledger: &mut Ledger) -> Self::Input;

    /// The timed region. With a live tracer it drives the same public
    /// entry points by hand, one span per layer call.
    fn run(&mut self, seed: u64, input: &mut Self::Input, tr: &mut Tracer) -> Self::Output;

    /// Correctness checks and the modelled metrics, after timing. With
    /// a live tracer also the layer metrics read off the spans.
    fn verify(
        &mut self,
        seed: u64,
        input: &mut Self::Input,
        out: &Self::Output,
        wall_s: f64,
        tr: &mut Tracer,
        ledger: &mut Ledger,
    );

    /// Micro-timings of the layers this workload reaches, sharing
    /// `budget` between them. Traced run only.
    fn layers(&mut self, seed: u64, budget: Duration, tr: &mut Tracer, ledger: &mut Ledger);
}

/// Inputs an untraced run cycles through, rep by rep. How long a
/// workload takes depends on the graph drawn (the hubs of a power-law
/// graph decide how far updates travel), so one graph per run would
/// make `wall_s` and `peak_rss_mb` differ between seeds by more than a
/// regression bound; the median over reps on several graphs does not.
const INPUTS_PER_RUN: u64 = 3;

/// Fewest reps of a run, however short `--seconds` is: every input
/// twice, so "modelled values repeat exactly" is checked on each.
const MIN_REPS: u64 = 2 * INPUTS_PER_RUN;

/// Seed of the `i`-th input of a run; the first is `seed` itself, which
/// is also the one input the traced run uses.
fn input_seed(seed: u64, i: u64) -> u64 {
    seed ^ (i % INPUTS_PER_RUN).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

fn one_rep<B: Bench>(b: &mut B, seed: u64, tr: &mut Tracer, ledger: &mut Ledger) -> (f64, f64) {
    // Peak memory of set-up plus timed region, not of the checks.
    host::reset_peak_rss();
    let t = Instant::now();
    let mut input = b.setup(seed, tr, ledger);
    let setup_s = t.elapsed().as_secs_f64();
    ledger.put("setup_s", setup_s);

    let cpu0 = host::process_cpu_s();
    let t = Instant::now();
    let out = b.run(seed, &mut input, tr);
    let wall_s = t.elapsed().as_secs_f64();
    ledger.put("wall_s", wall_s);
    ledger.put("bench.cpu_s", host::process_cpu_s() - cpu0);
    ledger.put("peak_rss_mb", host::peak_rss_mb());

    b.verify(seed, &mut input, &out, wall_s, tr, ledger);
    (setup_s, wall_s)
}

/// The untraced run: closed loop, one rep after another, until set-up
/// plus timed region have used `seconds`. Every rep sets up afresh, so
/// `setup_s` is a median over as many set-ups as `wall_s` has samples.
pub fn run_untraced<B: Bench>(b: &mut B, seed: u64, seconds: f64) -> Ledger {
    let mut ledger = Ledger::default();
    let mut tr = Tracer::new(false);
    let mut used = 0.0;
    let mut reps = 0;
    while reps < MIN_REPS || used < seconds {
        let (setup_s, wall_s) = one_rep(b, input_seed(seed, reps), &mut tr, &mut ledger);
        used += setup_s + wall_s;
        reps += 1;
    }
    ledger
}

/// The traced run: traced reps for half of `seconds`, one untraced rep
/// for the overhead ratio, then the layer micro-timings for the other
/// half. Returns the ledger and the tracer holding the spans.
pub fn run_traced<B: Bench>(b: &mut B, seed: u64, seconds: f64) -> (Ledger, Tracer) {
    let mut ledger = Ledger::default();
    let mut tr = Tracer::new(true);
    let mut used = 0.0;
    loop {
        let rep = tr.enter("bench.rep");
        let (setup_s, wall_s) = one_rep(b, seed, &mut tr, &mut ledger);
        tr.exit(rep);
        used += setup_s + wall_s;
        if used >= seconds / 2.0 {
            break;
        }
    }

    // Its samples stay out of the traced medians; its checks count.
    let mut plain = Ledger::default();
    let (_, untraced_wall) = one_rep(b, seed, &mut Tracer::new(false), &mut plain);
    ledger.attempted += plain.attempted;
    ledger.failures.append(&mut plain.failures);
    let traced_wall = median(ledger.samples("wall_s")).expect("at least one traced rep");
    ledger.put("bench.untraced_wall_s", untraced_wall);
    ledger.put("bench.trace_overhead_ratio", traced_wall / untraced_wall);

    let micro = tr.enter("bench.layers");
    let budget = Duration::from_secs_f64(seconds / 2.0);
    b.layers(seed, budget, &mut tr, &mut ledger);
    tr.exit(micro);
    (ledger, tr)
}
