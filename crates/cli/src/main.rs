//! The `traffic-warehouse` binary entry point.
//!
//! Argument errors get the full usage text; runtime failures (a missing
//! file, a refused connection, a `--deny-warnings` analyze run) print only
//! the error so the cause is not buried under a screenful of help.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = tw_cli::parse_args(&args).unwrap_or_else(|error| {
        eprintln!("error: {error}");
        eprint!("{}", tw_cli::usage());
        std::process::exit(2);
    });
    match tw_cli::run(&command) {
        Ok(output) => print!("{output}"),
        Err(error) => {
            eprintln!("error: {error}");
            std::process::exit(1);
        }
    }
}
