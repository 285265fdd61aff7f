//! Property: both renderings of the JSON layer parse back to the value
//! they were rendered from, for arbitrary trees of every variant.

use proptest::prelude::*;
use turnpike_metrics::Json;

/// Generates JSON trees up to `depth` levels of containers, with every
/// number constructor and strings full of characters that need escaping.
struct AnyJson {
    depth: u32,
}

impl Strategy for AnyJson {
    type Value = Json;

    fn generate(&self, rng: &mut TestRng) -> Json {
        let kinds = if self.depth == 0 { 7 } else { 9 };
        let inner = AnyJson {
            depth: self.depth.saturating_sub(1),
        };
        let len = rng.below(5);
        match rng.below(kinds) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 1),
            2 => Json::from(rng.next_u64() >> rng.below(64)),
            3 => Json::from(rng.next_u64() as i64),
            4 => Json::from(f64::from_bits(rng.next_u64())),
            5 => Json::fixed(
                (rng.next_u64() as f64 / u64::MAX as f64 - 0.5) * 1e6,
                rng.below(9),
            ),
            6 => Json::from(text(rng)),
            7 => Json::Arr((0..len).map(|_| inner.generate(rng)).collect()),
            _ => Json::Obj((0..len).map(|_| (text(rng), inner.generate(rng))).collect()),
        }
    }
}

/// A short string over characters that exercise every escaping rule:
/// quotes, backslashes, named and `\u` control escapes, non-ASCII, and
/// JSON punctuation.
fn text(rng: &mut TestRng) -> String {
    const ALPHABET: &[char] = &[
        'a', 'Z', '0', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '☂', ' ',
        '/', '{', '}', '[', ']', ':', ',',
    ];
    (0..rng.below(8))
        .map(|_| ALPHABET[rng.below(ALPHABET.len())])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn compact_and_pretty_renderings_parse_back_to_the_value(v in AnyJson { depth: 4 }) {
        let compact = v.to_string();
        prop_assert!(!compact.contains('\n'), "{compact}");
        prop_assert_eq!(Json::parse(&compact).unwrap(), v.clone());
        let pretty = v.pretty();
        prop_assert_eq!(Json::parse(&pretty).unwrap(), v.clone());
        // Canonical text is a fixed point of parse → render.
        prop_assert_eq!(Json::parse(&pretty).unwrap().pretty(), pretty);
    }
}
