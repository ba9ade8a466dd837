//! Thin binary wrapper over [`chronolog_cli::run_cli`].

#![forbid(unsafe_code)]

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let read = |path: &str| -> std::io::Result<String> {
        if path == "-" {
            let mut s = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut s)?;
            Ok(s)
        } else {
            std::fs::read_to_string(path)
        }
    };
    match chronolog_cli::run_cli(&args, read) {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("chronolog: {}", e.message);
            std::process::exit(e.code);
        }
    }
}
