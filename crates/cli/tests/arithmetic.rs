//! Integer arithmetic at the edge of `i64`: an integer result that does not
//! fit falls back to `f64`, as `+`, `-` and `*` always did, in batch and in
//! a session alike.

use chronolog_cli::run_cli;

/// `Y` is `i64::MIN`; `-Y`, `abs(Y)` and `Y / -1` are `2^63`, one past
/// `i64::MAX`: the float that prints as `9.223372036854776e18` (an
/// exponent, so that it reads back as a float, not an integer).
const PROGRAM: &str = "div(Z) :- q(X), Y = X - 1, Z = Y / -1.\n\
     neg(Z) :- q(X), Y = X - 1, Z = -Y.\n\
     abs(Z) :- q(X), Y = X - 1, Z = abs(Y).\n\
     q(-9223372036854775807)@1.\n";

fn run(extra: &[&str]) -> String {
    let mut argv: Vec<String> = ["run", "overflow.dmtl", "--horizon", "0..5", "--facts"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    argv.extend(extra.iter().map(|s| s.to_string()));
    run_cli(&argv, |_| Ok(PROGRAM.to_string())).unwrap()
}

#[test]
fn overflowing_division_falls_back_to_float() {
    for out in [run(&[]), run(&["--session"])] {
        assert!(out.contains("div(9.223372036854776e18)@[1]"), "{out}");
    }
}

#[test]
fn overflowing_negation_and_abs_fall_back_to_float() {
    for out in [run(&[]), run(&["--session"])] {
        assert!(out.contains("neg(9.223372036854776e18)@[1]"), "{out}");
        assert!(out.contains("abs(9.223372036854776e18)@[1]"), "{out}");
        // The wrapped integer result.
        assert!(!out.contains("-9223372036854775808"), "{out}");
    }
}
