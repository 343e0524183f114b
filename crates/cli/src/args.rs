#[cfg(test)]
mod tests {
    use dpr_sim::flags::Args;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from).collect()).unwrap()
    }

    #[test]
    fn values_switches_lists() {
        let a = parse("--nodes 100 --json --links 1,2,3");
        assert_eq!(a.get::<usize>("nodes", 0).unwrap(), 100);
        assert!(a.has("json"));
        assert_eq!(a.get_list::<u32>("links").unwrap(), vec![1, 2, 3]);
        assert_eq!(a.get::<f64>("eps", 0.5).unwrap(), 0.5);
    }

    #[test]
    fn missing_required_is_an_error() {
        let a = parse("--nodes 100");
        assert!(a.required("graph").is_err());
        assert!(a.get_required::<usize>("graph").is_err());
    }

    #[test]
    fn bad_parse_is_an_error_not_a_panic() {
        let a = parse("--nodes lots");
        assert!(a.get::<usize>("nodes", 0).is_err());
    }

    #[test]
    fn positional_rejected() {
        assert!(Args::parse(vec!["loose".into()]).is_err());
    }

    /// Zero (or NaN) where the library asserts a positive value is a
    /// clean `Err` at the CLI edge; a panic fails the test.
    #[test]
    fn degenerate_values_are_errors_not_panics() {
        use crate::commands::{generate, search, serve};
        type Cmd = fn(&Args) -> Result<(), String>;
        let cases: [(Cmd, &str, &str); 9] = [
            (generate, "--nodes 0 --out /nonexistent/x.bin", "--nodes"),
            (search, "--docs 0", "--docs"),
            (search, "--docs 300 --vocab 0", "--vocab"),
            (search, "--docs 300 --peers 0", "--peers"),
            (serve, "--qps 0", "--qps"),
            (serve, "--qps nan", "--qps"),
            (serve, "--qps -1", "--qps"),
            (serve, "--vocab 0", "--vocab"),
            (serve, "--query-len 0", "--query-len"),
        ];
        for (cmd, flags, named) in cases {
            let e = cmd(&parse(&format!("{flags} --quiet"))).unwrap_err();
            assert!(e.contains(named) && e.contains("positive"), "{flags}: {e}");
        }
    }

    /// A value the library would panic on, or that would make a CI gate
    /// meaningless, is a clean `Err` naming what is wrong.
    #[test]
    fn out_of_range_values_are_errors_not_panics() {
        use crate::commands::{search, serve};
        type Cmd = fn(&Args) -> Result<(), String>;
        let cases: [(Cmd, &str, &str); 4] = [
            (search, "--docs 300 --query 5,5", "query term 5 repeated"),
            (serve, "--slo-budget 2", "--slo-budget must be in [0, 1]"),
            (serve, "--slo-budget nan", "--slo-budget must be in [0, 1]"),
            (serve, "--slo-budget -1", "--slo-budget must be in [0, 1]"),
        ];
        for (cmd, flags, named) in cases {
            let e = cmd(&parse(&format!("{flags} --quiet"))).unwrap_err();
            assert!(e.contains(named), "{flags}: {e}");
        }
    }

    /// What `main` does after a command succeeds: a flag the command
    /// never read fails the invocation.
    #[test]
    fn a_flag_the_command_never_read_fails_the_invocation() {
        use crate::commands::doctor;
        for (flags, unknown) in [
            ("--threads 4", "--threads"),
            ("--pears 3", "--pears"),
            ("--terms", "--terms"),
        ] {
            let a = parse(&format!("--docs 300 --peers 4 --quiet {flags}"));
            let e = doctor(&a).and_then(|()| a.reject_unread()).unwrap_err();
            assert_eq!(e, format!("unknown flag {unknown}"));
        }
        let a = parse("--docs 300 --peers 4 --quiet");
        assert_eq!(doctor(&a).and_then(|()| a.reject_unread()), Ok(()));
    }

    #[test]
    fn empty_list_when_absent() {
        let a = parse("");
        assert!(a.get_list::<u32>("links").unwrap().is_empty());
    }
}
