//! Stable content hashing for job keys.
//!
//! The result store is content-addressed: a job's key is a hash of
//! everything that determines its output — the workload combo, the full
//! `CompareConfig` (scheme parameters, platform, budget) and a schema
//! version. The simulators are deterministic, so equal keys imply equal
//! results. FNV-1a (64-bit) is stable across runs and platforms, unlike
//! `std::hash`'s randomised `DefaultHasher`.
//!
//! A key has two lanes, FNV-1a forward over the input and FNV-1a over
//! the reversed input, held together as one 128-bit [`ContentKey`].
//! Unit keys share most of their input across units, so the batched
//! hashers below let a caller hash a shared piece once and advance many
//! lanes in one loop: the forward lane continues from a prefix's state,
//! the reverse lane (which meets the input's end first) from a
//! suffix's.

use std::fmt;
use std::str::FromStr;

/// The FNV-1a state of the empty input.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01B3;

/// A content key: the forward lane in the high 64 bits, the reverse
/// lane in the low 64. It is a value — compared, ordered and looked up
/// as a `u128` — and prints as the 32 lowercase hex digits the store
/// writes, forward lane first, so the numeric order is the order of
/// the written keys.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContentKey(u128);

impl ContentKey {
    /// The key of a forward and a reverse lane state.
    fn from_lanes(forward: u64, reverse: u64) -> Self {
        ContentKey(u128::from(forward) << 64 | u128::from(reverse))
    }
}

impl fmt::Display for ContentKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::Debug for ContentKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ContentKey({self})")
    }
}

impl FromStr for ContentKey {
    type Err = String;

    /// Parse exactly 32 lowercase hex digits, the spelling
    /// [`ContentKey`]'s `Display` writes; anything else is an error.
    /// Every byte is checked and converted without a branch, so the
    /// random mix of digits and letters in a key costs no mispredicts.
    fn from_str(s: &str) -> Result<Self, String> {
        const WANT: &str = "a content key is 32 lowercase hex digits";
        let hex = |b: u8| b.wrapping_sub(b'0') < 10 || b.wrapping_sub(b'a') < 6;
        let digits: &[u8; 32] = s
            .as_bytes()
            .try_into()
            .map_err(|_| format!("{WANT}, got {} bytes", s.len()))?;
        if !digits.iter().fold(true, |ok, &b| ok & hex(b)) {
            let bad = digits
                .iter()
                .find(|&&b| !hex(b))
                .copied()
                .unwrap_or_default();
            return Err(format!("{WANT}, got byte {bad:#04x}"));
        }
        // '0'..='9' are 0x30..=0x39 and 'a'..='f' 0x61..=0x66: the low
        // nibble, plus 9 for a letter (bit 6 set).
        let lane = |half: &[u8]| {
            half.iter()
                .fold(0u64, |v, &b| v << 4 | u64::from((b & 0xf) + 9 * (b >> 6)))
        };
        let (forward, reverse) = digits.split_at(16);
        Ok(ContentKey::from_lanes(lane(forward), lane(reverse)))
    }
}

/// A key equals a string that spells it exactly (`Display`'s form).
impl PartialEq<str> for ContentKey {
    fn eq(&self, other: &str) -> bool {
        other.parse() == Ok(*self)
    }
}

impl PartialEq<&str> for ContentKey {
    fn eq(&self, other: &&str) -> bool {
        *self == **other
    }
}

impl PartialEq<String> for ContentKey {
    fn eq(&self, other: &String) -> bool {
        *self == **other
    }
}

/// One FNV-1a step.
fn fnv_step(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(FNV_PRIME)
}

/// FNV-1a over a byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_from(FNV_OFFSET, bytes)
}

/// FNV-1a continued from `state` over `bytes`, front to back.
fn fnv1a64_from(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| fnv_step(h, b))
}

/// One vector of `W` lanes that all step over the same input.
struct LaneVector<'a, const W: usize> {
    /// The lanes' states.
    h: [u64; W],
    /// The input every lane of the vector steps over.
    input: &'a [u8],
    /// Where lane 0's result goes in the output.
    at: usize,
    /// How many of the `W` lanes are real (the rest pad the last
    /// vector of a group).
    used: usize,
}

/// Advance every vector over its input, `REV`ersed or not, and scatter
/// the lane results into a vector of `out_len`.
///
/// All vectors advance in one loop over byte positions, so the serial
/// multiply chains of every vector overlap; inside a vector the `W`
/// lanes take the same byte, which compiles to one vector XOR and
/// multiply. Vectors run in order of input length, so at each position
/// the ones still running are a suffix of the list.
fn advance<const W: usize, const REV: bool>(
    mut vectors: Vec<LaneVector<'_, W>>,
    out_len: usize,
) -> Vec<u64> {
    vectors.sort_by_key(|v| v.input.len());
    let mut from = 0;
    let mut done = 0;
    while let Some(shortest) = vectors.get(done).map(|v| v.input.len()) {
        for pos in from..shortest {
            for v in &mut vectors[done..] {
                let b = v.input[if REV { v.input.len() - 1 - pos } else { pos }];
                for h in &mut v.h {
                    *h = fnv_step(*h, b);
                }
            }
        }
        from = shortest;
        done += vectors[done..]
            .iter()
            .take_while(|v| v.input.len() == shortest)
            .count();
    }
    let mut out = vec![0; out_len];
    for v in &vectors {
        out[v.at..v.at + v.used].copy_from_slice(&v.h[..v.used]);
    }
    out
}

/// Every start state continued over every input, in one loop: result
/// `i * starts.len() + s` is `starts[s]` continued over `inputs[i]`,
/// front to back (`REV` false, [`fnv1a64_from`]) or back to front. The
/// starts of one input share its bytes, so they pack into vectors:
/// four lanes wide for a class of three combos (wider vectors would
/// mostly pad), eight for anything larger.
fn grid<const REV: bool>(starts: &[u64], inputs: &[&[u8]]) -> Vec<u64> {
    let out_len = inputs.len() * starts.len();
    if starts.len() <= 4 {
        advance::<4, REV>(pack(starts, inputs), out_len)
    } else {
        advance::<8, REV>(pack(starts, inputs), out_len)
    }
}

/// The vectors of [`grid`]: each input's starts, `W` to a vector.
fn pack<'a, const W: usize>(starts: &[u64], inputs: &[&'a [u8]]) -> Vec<LaneVector<'a, W>> {
    inputs
        .iter()
        .enumerate()
        .flat_map(|(i, &input)| {
            starts.chunks(W).enumerate().map(move |(c, chunk)| {
                let mut h = [0; W];
                h[..chunk.len()].copy_from_slice(chunk);
                LaneVector {
                    h,
                    input,
                    at: i * starts.len() + c * W,
                    used: chunk.len(),
                }
            })
        })
        .collect()
}

/// One lane per input, all in one loop: lane `l` is `starts[l]`
/// continued over `inputs[l]`, front to back (`REV` false) or back to
/// front. Each lane has its own bytes, so lanes are scalar.
fn lanes<const REV: bool>(starts: &[u64], inputs: &[&[u8]]) -> Vec<u64> {
    let vectors = starts
        .iter()
        .zip(inputs)
        .enumerate()
        .map(|(at, (&h, &input))| LaneVector {
            h: [h],
            input,
            at,
            used: 1,
        })
        .collect();
    advance::<1, REV>(vectors, starts.len().min(inputs.len()))
}

/// The keys of every `prefixes[p] ++ suffixes[s]` without concatenating
/// them: key `p * suffixes.len() + s`. Each suffix's reverse state is
/// hashed once for all prefixes and each prefix's forward state once
/// for all suffixes; then the forward lanes fan over the suffixes and
/// the reverse lanes over the prefixes, every lane of each in one
/// loop.
pub(crate) fn content_keys(prefixes: &[&[u8]], suffixes: &[&[u8]]) -> Vec<ContentKey> {
    let forward_prefix = lanes::<false>(&vec![FNV_OFFSET; prefixes.len()], prefixes);
    let reverse_suffix = lanes::<true>(&vec![FNV_OFFSET; suffixes.len()], suffixes);
    let forward = grid::<false>(&forward_prefix, suffixes);
    let reverse = grid::<true>(&reverse_suffix, prefixes);
    let (np, ns) = (prefixes.len(), suffixes.len());
    (0..np * ns)
        .map(|k| {
            let (p, s) = (k / ns, k % ns);
            ContentKey::from_lanes(forward[s * np + p], reverse[k])
        })
        .collect()
}

/// A content key: two independent FNV-1a passes (forward and salted,
/// i.e. over the reversed bytes) to push collision odds far below any
/// realistic sweep size. Both passes run in one loop, with no reversed
/// copy.
pub fn content_key(input: &str) -> ContentKey {
    let bytes = input.as_bytes();
    let (forward, reverse) = bytes
        .iter()
        .zip(bytes.iter().rev())
        .fold((FNV_OFFSET, FNV_OFFSET), |(a, b), (&f, &r)| {
            (fnv_step(a, f), fnv_step(b, r))
        });
    ContentKey::from_lanes(forward, reverse)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a continued from `state` over `bytes`, back to front: the
    /// scalar reference of the reverse hashers.
    fn fnv1a64_rev_from(state: u64, bytes: &[u8]) -> u64 {
        bytes.iter().rev().fold(state, |h, &b| fnv_step(h, b))
    }

    #[test]
    fn keys_are_stable_and_distinct() {
        let k1 = content_key("combo=ammp|budget=quick");
        assert_eq!(k1, content_key("combo=ammp|budget=quick"), "stable");
        assert_eq!(k1.to_string().len(), 32);
        assert!(k1.to_string().chars().all(|c| c.is_ascii_hexdigit()));
        assert_ne!(k1, content_key("combo=ammp|budget=eval"));
        assert_ne!(k1, content_key("combo=mcf|budget=quick"));
    }

    #[test]
    fn keys_are_pinned_to_the_two_pass_definition() {
        assert_eq!(
            content_key("combo=ammp|budget=quick"),
            "1312915248ab551a9f8ce8a535f93112"
        );
        assert_eq!(content_key(""), "cbf29ce484222325cbf29ce484222325");
        for input in ["a", "ab", "odd", "é€|x"] {
            let reversed: Vec<u8> = input.bytes().rev().collect();
            let two_pass = format!(
                "{:016x}{:016x}",
                fnv1a64(input.as_bytes()),
                fnv1a64(&reversed)
            );
            assert_eq!(content_key(input), two_pass, "{input}");
        }
    }

    #[test]
    fn reversal_salt_separates_anagrams() {
        // A plain single-pass FNV maps permuted inputs to different
        // values already, but the doubled key must too.
        assert_ne!(content_key("ab"), content_key("ba"));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Known FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171F73967E8);
    }

    /// Every key of `prefixes × suffixes` from [`content_keys`] equals
    /// [`content_key`] of the joined string.
    fn assert_piecewise_keys_match(prefixes: &[String], suffixes: &[String]) {
        let p: Vec<&[u8]> = prefixes.iter().map(|s| s.as_bytes()).collect();
        let s: Vec<&[u8]> = suffixes.iter().map(|s| s.as_bytes()).collect();
        let keys = content_keys(&p, &s);
        assert_eq!(keys.len(), prefixes.len() * suffixes.len());
        let mut keys = keys.into_iter();
        for prefix in prefixes {
            for suffix in suffixes {
                assert_eq!(
                    keys.next(),
                    Some(content_key(&format!("{prefix}{suffix}"))),
                    "{prefix:?} + {suffix:?}"
                );
            }
        }
    }

    #[test]
    fn piecewise_keys_cover_empty_pieces_and_every_group_size() {
        assert_piecewise_keys_match(&[String::new()], &[String::new()]);
        assert_piecewise_keys_match(&[], &[String::new()]);
        assert_piecewise_keys_match(&[String::new()], &[]);
        let suffixes: Vec<String> = (0..9).map(|n| "é|x".repeat(n)).collect();
        let prefixes: Vec<String> = (0..22)
            .map(|n| format!("snug/v2|{}|", "c".repeat(n % 5)))
            .collect();
        for size in 1..=suffixes.len() {
            for combos in [1, 3, 4, 5, 8, 9, 21, 22] {
                assert_piecewise_keys_match(&prefixes[..combos], &suffixes[..size]);
                let longest_first: Vec<String> = suffixes[..size].iter().rev().cloned().collect();
                assert_piecewise_keys_match(&prefixes[..combos], &longest_first);
            }
        }
    }

    #[test]
    fn content_keys_parse_back_from_their_display() {
        for input in ["", "a", "combo=ammp|budget=quick", "é€|x"] {
            let key = content_key(input);
            let text = key.to_string();
            assert_eq!(text.len(), 32);
            assert_eq!(text.parse::<ContentKey>(), Ok(key), "{text}");
            assert_eq!(key, text);
            assert_eq!(format!("{key:?}"), format!("ContentKey({text})"));
        }
        for (text, key) in [
            ("00000000000000000000000000000000", ContentKey(0)),
            ("ffffffffffffffffffffffffffffffff", ContentKey(u128::MAX)),
            (
                "0123456789abcdef0000000000000001",
                ContentKey::from_lanes(0x0123_4567_89ab_cdef, 1),
            ),
        ] {
            assert_eq!(text.parse(), Ok(key));
            assert_eq!(key.to_string(), text);
        }
    }

    #[test]
    fn content_keys_reject_every_other_spelling() {
        let good = "1312915248ab551a9f8ce8a535f93112";
        let bad = [
            String::new(),
            good[..31].to_string(),
            format!("{good}0"),
            good.to_uppercase(),
            good.replacen('a', "A", 1),
            good.replacen('1', "g", 1),
            good.replacen('1', " ", 1),
            good.replacen('1', "+", 1),
            format!("0x{}", &good[2..]),
            format!("{}é", &good[..30]),
            format!(" {}", &good[1..]),
        ];
        for text in bad {
            let err = text.parse::<ContentKey>().unwrap_err();
            assert!(err.contains("32 lowercase hex digits"), "{text:?}: {err}");
            assert_ne!(content_key("combo=ammp|budget=quick"), text);
        }
    }

    /// The keys sort as their written hex spelling does, so a store
    /// compacted in key order writes the same line order either way.
    #[test]
    fn key_order_is_the_order_of_their_hex_spelling() {
        let mut keys: Vec<ContentKey> = (0..200).map(|n| content_key(&n.to_string())).collect();
        keys.push(ContentKey::from_lanes(1, u64::MAX));
        keys.push(ContentKey::from_lanes(2, 0));
        let mut by_text = keys.clone();
        by_text.sort_by_key(ContentKey::to_string);
        keys.sort();
        assert_eq!(keys, by_text);
    }

    use proptest::prelude::*;

    /// The string of the drawn code points (surrogates read as `|`), so
    /// one- to four-byte UTF-8 runs mix freely.
    fn text(picks: &[u32]) -> String {
        picks
            .iter()
            .map(|&c| char::from_u32(c).unwrap_or('|'))
            .collect()
    }

    proptest! {
        /// Groups of one to nine suffixes of unequal (and often zero)
        /// length key exactly as their joined inputs do.
        #[test]
        fn piecewise_keys_equal_the_joined_key(
            prefixes in proptest::collection::vec(proptest::collection::vec(0u32..0x800, 0..24), 1..=22),
            suffixes in proptest::collection::vec(proptest::collection::vec(0u32..0x11_0000, 0..40), 1..=9),
        ) {
            let prefixes: Vec<String> = prefixes.iter().map(|s| text(s)).collect();
            let suffixes: Vec<String> = suffixes.iter().map(|s| text(s)).collect();
            assert_piecewise_keys_match(&prefixes, &suffixes);
        }

        /// Each batched hasher equals the scalar one lane for lane, from
        /// random start states over byte strings of unequal length, at
        /// every lane count from 0 to 64 — the three- and 21-combo
        /// classes among them.
        #[test]
        fn batched_hashers_equal_the_scalar_ones_lane_for_lane(
            starts in proptest::collection::vec(0u64..=u64::MAX, 0..=64),
            inputs in proptest::collection::vec(proptest::collection::vec(0u8..=255, 0..48), 0..=10),
            pick in proptest::collection::vec(0u64..=u64::MAX, 2..3),
        ) {
            let bytes: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
            let combos = [3, 21, pick[0] as usize % 65];
            for n in combos.into_iter().chain([starts.len()]) {
                let starts: Vec<u64> = (0..n as u64).map(|i| starts.get(i as usize).copied().unwrap_or(i ^ pick[1])).collect();
                let forward = grid::<false>(&starts, &bytes);
                let reverse = grid::<true>(&starts, &bytes);
                prop_assert_eq!(forward.len(), n * bytes.len());
                prop_assert_eq!(reverse.len(), n * bytes.len());
                for (i, input) in bytes.iter().enumerate() {
                    for (s, &start) in starts.iter().enumerate() {
                        prop_assert_eq!(forward[i * n + s], fnv1a64_from(start, input));
                        prop_assert_eq!(reverse[i * n + s], fnv1a64_rev_from(start, input));
                    }
                }
                // One lane per input, as many as both sides have.
                let wide: Vec<&[u8]> = bytes.iter().copied().cycle().take(n).collect();
                let forward = lanes::<false>(&starts, &wide);
                let reverse = lanes::<true>(&starts, &wide);
                prop_assert_eq!(forward.len(), wide.len());
                prop_assert_eq!(reverse.len(), wide.len());
                for (l, (&start, input)) in starts.iter().zip(&wide).enumerate() {
                    prop_assert_eq!(forward[l], fnv1a64_from(start, input));
                    prop_assert_eq!(reverse[l], fnv1a64_rev_from(start, input));
                }
            }
        }
    }
}
