//! The one flag parser and the one output/trace sink, shared by the
//! `dpr` subcommands and the experiment binaries.
//!
//! [`Args`] is deliberately tiny: `--key value` pairs and bare
//! `--switch`es, with typed accessors that produce readable errors
//! instead of panics (`dpr` reports them; the experiment binaries
//! panic on them at their own edge). The scenario flags themselves are
//! read by [`ScenarioSpec::from_flags`](crate::spec::ScenarioSpec::from_flags)
//! through [`Args::optional`]. Every accessor marks the flag it finds
//! as read, so what the invocation never looked at — a typo, a flag of
//! another command, a value given to a switch — is an error at the end
//! ([`Args::reject_unread`]) with no list of flag names to maintain.
//!
//! Every command prints through one [`Reporter`] instead of raw
//! `println!`: the default path is byte-identical stdout, `--quiet`
//! silences it, and `--trace-out FILE` / `--prom-out FILE` attach a
//! live [`TraceRecorder`] whose handle the command threads into the
//! drivers. [`Reporter::finish`] flushes the sinks and writes the
//! Prometheus snapshot.

use crate::spec::Observe;
use dpr_telemetry::{Recorder, TraceRecorder, NOOP};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

/// Parsed flags of one invocation.
#[derive(Debug, Default)]
pub struct Args {
    /// Name → value (`None` for a bare switch), and whether an
    /// accessor has read it.
    flags: HashMap<String, (Option<String>, Cell<bool>)>,
}

impl Args {
    /// Parses a flag list; positional arguments are errors.
    pub fn parse(argv: Vec<String>) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = argv.into_iter().peekable();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected positional argument '{a}'"));
            };
            if name.is_empty() {
                return Err("empty flag '--'".into());
            }
            let value = it.next_if(|v| !v.starts_with("--"));
            out.flags
                .insert(name.to_string(), (value, Cell::new(false)));
        }
        Ok(out)
    }

    /// The value slot of flag `name` if it was given as the wanted
    /// kind (bare switch or `--key value`), marking it read.
    fn read(&self, name: &str, switch: bool) -> Option<&Option<String>> {
        let (value, read) = self.flags.get(name)?;
        (value.is_none() == switch).then(|| {
            read.set(true);
            value
        })
    }

    /// Whether a bare switch is present.
    pub fn has(&self, name: &str) -> bool {
        self.read(name, true).is_some()
    }

    /// A required string flag.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.optional(name)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// An optional string flag.
    pub fn optional(&self, name: &str) -> Option<&str> {
        self.read(name, false)?.as_deref()
    }

    /// Fails on every flag given that no accessor has read. Call once
    /// the invocation has read all it is going to.
    pub fn reject_unread(&self) -> Result<(), String> {
        let unread = self.flags.iter().filter(|(_, (_, read))| !read.get());
        let mut names: Vec<String> = unread.map(|(name, _)| format!("--{name}")).collect();
        if names.is_empty() {
            return Ok(());
        }
        names.sort();
        Err(format!("unknown flag {}", names.join(", ")))
    }

    /// A typed flag with a default.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        self.optional(name).map_or(Ok(default), |v| parse(name, v))
    }

    /// A required typed flag.
    pub fn get_required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        parse(name, self.required(name)?)
    }

    /// A comma-separated list of typed values.
    pub fn get_list<T: std::str::FromStr>(&self, name: &str) -> Result<Vec<T>, String> {
        let Some(list) = self.optional(name) else {
            return Ok(Vec::new());
        };
        list.split(',').map(|v| parse(name, v.trim())).collect()
    }
}

fn parse<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("flag --{name}: cannot parse '{value}'"))
}

/// Stdout verbosity plus the optional telemetry trace of one
/// invocation.
pub struct Reporter {
    quiet: bool,
    rec: Option<Arc<TraceRecorder>>,
    trace_out: Option<String>,
    prom_out: Option<String>,
}

impl Reporter {
    /// Builds the reporter from the shared flags: `--quiet`,
    /// `--trace-out FILE` (JSONL event trace) and `--prom-out FILE`
    /// (Prometheus text snapshot, implies an in-memory recorder even
    /// without a trace file).
    pub fn from_args(args: &Args) -> Result<Self, String> {
        let trace_out = args.optional("trace-out").map(String::from);
        let prom_out = args.optional("prom-out").map(String::from);
        let rec = match &trace_out {
            Some(p) => Some(Arc::new(
                TraceRecorder::with_jsonl(p).map_err(|e| format!("create {p}: {e}"))?,
            )),
            None if prom_out.is_some() => Some(Arc::new(TraceRecorder::new())),
            None => None,
        };
        Ok(Reporter {
            quiet: args.has("quiet"),
            rec,
            trace_out,
            prom_out,
        })
    }

    /// Prints one line unless `--quiet`.
    pub fn say(&self, line: impl AsRef<str>) {
        if !self.quiet {
            println!("{}", line.as_ref());
        }
    }

    /// Prints an already-rendered block (a table with its own
    /// newlines) verbatim unless `--quiet`.
    pub fn print(&self, block: impl AsRef<str>) {
        if !self.quiet {
            print!("{}", block.as_ref());
        }
    }

    /// The recorder to thread into run loops: the live trace when one
    /// was requested, the no-op recorder otherwise.
    pub fn recorder(&self) -> &dyn Recorder {
        match &self.rec {
            Some(r) => r.as_ref() as &dyn Recorder,
            None => &NOOP,
        }
    }

    /// Shared handle for components that store their recorder (the
    /// cluster transport and hop models); `None` when tracing is off.
    pub fn recorder_arc(&self) -> Option<Arc<dyn Recorder>> {
        self.rec.as_ref().map(|r| r.clone() as Arc<dyn Recorder>)
    }

    /// A run watched through this invocation's trace, if any: its run
    /// loop, and a cluster's transport and hop accounting.
    pub fn observe(&self) -> Observe<'_, dyn Recorder + '_> {
        Observe {
            shared: self.recorder_arc(),
            ..Observe::new(self.recorder())
        }
    }

    /// The live aggregate, for commands that read the run's events or
    /// counters back; `None` when tracing is off.
    pub fn aggregate(&self) -> Option<&Arc<TraceRecorder>> {
        self.rec.as_ref()
    }

    /// Flushes the JSONL sink, writes the Prometheus snapshot, and
    /// reports where they went. A no-op without trace flags, keeping
    /// default stdout untouched.
    pub fn finish(&self) -> Result<(), String> {
        let Some(rec) = &self.rec else {
            return Ok(());
        };
        rec.flush().map_err(|e| format!("flush trace: {e}"))?;
        if let Some(p) = &self.prom_out {
            std::fs::write(p, rec.prometheus_text()).map_err(|e| format!("write {p}: {e}"))?;
            self.say(format!("wrote {p} (prometheus snapshot)"));
        }
        if let Some(p) = &self.trace_out {
            self.say(format!("wrote {p} ({} events)", rec.event_count()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from).collect()).unwrap()
    }

    #[test]
    fn flags_nobody_read_are_unknown() {
        let a = args("--docs 50 --pears 3 --quiet --terms");
        assert_eq!(a.get("docs", 0).unwrap(), 50);
        assert!(a.has("quiet"));
        assert_eq!(
            a.reject_unread().unwrap_err(),
            "unknown flag --pears, --terms"
        );
        // Reading them — whatever the reader does with the value —
        // is what makes them known.
        assert_eq!(a.optional("pears"), Some("3"));
        assert!(a.has("terms"));
        assert_eq!(a.reject_unread(), Ok(()));
        assert_eq!(args("").reject_unread(), Ok(()));
    }

    #[test]
    fn a_flag_read_as_the_wrong_kind_stays_unknown() {
        // `--threads` with no value is a switch; `--json 1` is a value.
        let a = args("--json 1 --threads");
        assert_eq!(a.optional("threads"), None);
        assert!(!a.has("json"));
        assert_eq!(
            a.reject_unread().unwrap_err(),
            "unknown flag --json, --threads"
        );
        // A failed parse still counts as read: its own error is the
        // one to report.
        let a = args("--docs lots");
        assert!(a.get::<usize>("docs", 0).is_err());
        assert_eq!(a.reject_unread(), Ok(()));
    }
}
