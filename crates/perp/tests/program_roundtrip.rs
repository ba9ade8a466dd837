//! The generated ETH-PERP program must survive a pretty-print → reparse
//! round trip (the paper's transparency argument presumes the program *is*
//! its text).

use chronolog_core::{parse_program, Stratification};
use chronolog_perp::{program, MarketParams};

#[test]
fn program_text_roundtrips_through_the_parser() {
    let original = program::build(&MarketParams::default()).unwrap();
    let printed = original.to_string();
    let reparsed = parse_program(&printed)
        .unwrap_or_else(|e| panic!("printed program must reparse: {e}\n{printed}"));
    assert_eq!(original.rules.len(), reparsed.rules.len());
    for (a, b) in original.rules.iter().zip(&reparsed.rules) {
        assert_eq!(a.head, b.head, "head of {:?}", a.label);
        assert_eq!(a.body.len(), b.body.len(), "body of {:?}", a.label);
    }
    // Identical stratification.
    let s1 = Stratification::compute(&original).unwrap();
    let s2 = Stratification::compute(&reparsed).unwrap();
    assert_eq!(s1.count(), s2.count());
}

#[test]
fn program_source_is_commented_per_module() {
    let src = program::source(&MarketParams::default());
    for module in [
        "MARGIN", "POSITION", "RETURNS", "SKEW", "TDIFF", "RATE", "FRS", "INDF", "FEES",
    ] {
        assert!(src.contains(module), "missing module banner {module}");
    }
    // All 48 paper rules present: count rule terminators.
    let rules = src.lines().filter(|l| l.contains(":-")).count();
    // 48 paper rules + live init/propagate + skew/frs init rules.
    assert_eq!(rules, 52);
}
