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

    #[test]
    fn empty_list_when_absent() {
        let a = parse("");
        assert!(a.get_list::<u32>("links").unwrap().is_empty());
    }
}
