//! Fuzz properties of the deck parser: arbitrary bytes and line-level
//! mutations of the committed decks must reach `parse_deck` and come back
//! as `Ok` or a described `Err`, never a panic.

use circuitdae::parse_deck;
use proptest::prelude::*;

const DECKS: [&str; 4] = [
    include_str!("../examples/decks/rc_smoke.ckt"),
    include_str!("../examples/decks/ring_scaling.ckt"),
    include_str!("../examples/decks/ring_scaling_1000.ckt"),
    include_str!("../examples/decks/vco_sweep.ckt"),
];

/// Parses `text`; an error must carry a message.
fn parse_cleanly(text: &str) {
    if let Err(e) = parse_deck(text) {
        assert!(!e.to_string().is_empty(), "empty error for {text:?}");
    }
}

/// Applies one line-level mutation, chosen by `op`, at line `at` (taken
/// modulo the line count) of `lines`: drop the line, duplicate it, or
/// truncate one of its whitespace-separated tokens at a char boundary.
fn mutate(lines: &mut Vec<String>, op: usize, at: usize, token: usize, cut: usize) {
    if lines.is_empty() {
        return;
    }
    let i = at % lines.len();
    match op % 3 {
        0 => {
            lines.remove(i);
        }
        1 => {
            let dup = lines[i].clone();
            lines.insert(i, dup);
        }
        _ => {
            let tokens: Vec<&str> = lines[i].split_whitespace().collect();
            if tokens.is_empty() {
                return;
            }
            let t = token % tokens.len();
            let chars: Vec<char> = tokens[t].chars().collect();
            let kept: String = chars[..cut % (chars.len() + 1)].iter().collect();
            let mut out: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
            out[t] = kept;
            lines[i] = out.join(" ");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary byte strings, decoded as lossy UTF-8.
    #[test]
    fn parse_deck_survives_arbitrary_bytes(bytes in prop::collection::vec(0u16..256, 0..400)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        parse_cleanly(&String::from_utf8_lossy(&bytes));
    }

    /// Arbitrary printable text drawn from the deck alphabet, so most
    /// cases get past the first token.
    #[test]
    fn parse_deck_survives_deck_alphabet_noise(picks in prop::collection::vec(0usize..64, 0..300)) {
        const ALPHABET: &[u8] = b"RLCVIGMDKX.=()*;+-_ \n\t0123456789eEnumkMsweeptranDCSINPULSEcontrol";
        let text: String = picks.iter().map(|&p| ALPHABET[p % ALPHABET.len()] as char).collect();
        parse_cleanly(&text);
    }

    /// One to four drop/duplicate/truncate mutations of a committed deck.
    #[test]
    fn parse_deck_survives_mutated_committed_decks(
        deck in 0usize..4,
        edits in prop::collection::vec((0usize..3, 0usize..4096, 0usize..16, 0usize..64), 1..5),
    ) {
        let mut lines: Vec<String> = DECKS[deck].lines().map(str::to_string).collect();
        for (op, at, token, cut) in edits {
            mutate(&mut lines, op, at, token, cut);
        }
        parse_cleanly(&lines.join("\n"));
    }
}
