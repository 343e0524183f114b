fn main() {
    dpr_bench::main(env!("CARGO_BIN_NAME"))
}
