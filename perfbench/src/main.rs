fn main() {
    std::process::exit(perfbench::bench::main());
}
