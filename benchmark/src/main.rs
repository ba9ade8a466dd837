fn main() {
    std::process::exit(chronolog_benchmark::cli::main(
        std::env::args().skip(1).collect(),
    ));
}
