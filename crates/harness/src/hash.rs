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
//! the reversed input. Unit keys share most of their input across
//! units, so the continuation functions below let a caller hash a
//! shared piece once: the forward lane continues from a prefix's state,
//! the reverse lane (which meets the input's end first) from a
//! suffix's.

/// The FNV-1a state of the empty input.
pub(crate) const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01B3;

/// One FNV-1a step.
fn fnv_step(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(FNV_PRIME)
}

/// FNV-1a over a byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_from(FNV_OFFSET, bytes)
}

/// FNV-1a continued from `state` over `bytes`, front to back.
pub(crate) fn fnv1a64_from(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| fnv_step(h, b))
}

/// FNV-1a continued from `state` over `bytes`, back to front: the
/// reverse lane's step for a piece that comes *earlier* in the input.
pub(crate) fn fnv1a64_rev_from(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().rev().fold(state, |h, &b| fnv_step(h, b))
}

/// The forward states of `start` continued over each input — one
/// combo's key prefix state over every point's suffix. Four inputs
/// advance in one loop, so their serial multiply chains overlap; a
/// short last group repeats its first input in the spare lanes.
pub(crate) fn fnv1a64_fan<T: AsRef<[u8]>>(start: u64, inputs: &[T]) -> Vec<u64> {
    let mut out = Vec::with_capacity(inputs.len());
    for group in inputs.chunks(4) {
        let lane = |i: usize| group.get(i).or(group.first()).map_or(&[][..], T::as_ref);
        let lanes = [lane(0), lane(1), lane(2), lane(3)];
        let [w, x, y, z] = lanes;
        let mut h = [start; 4];
        for (((&a, &b), &c), &d) in w.iter().zip(x).zip(y).zip(z) {
            h = [
                fnv_step(h[0], a),
                fnv_step(h[1], b),
                fnv_step(h[2], c),
                fnv_step(h[3], d),
            ];
        }
        let shared = w.len().min(x.len()).min(y.len()).min(z.len());
        out.extend(
            h.into_iter()
                .zip(lanes)
                .take(group.len())
                .map(|(h, input)| fnv1a64_from(h, input.get(shared..).unwrap_or_default())),
        );
    }
    out
}

/// A key's 32 hex digits from its forward and reverse lanes.
pub(crate) fn key_hex(forward: u64, reverse: u64) -> String {
    format!("{forward:016x}{reverse:016x}")
}

/// The content key of `prefix ++ suffix` without concatenating them:
/// the forward lane continues over the suffix from the prefix's state,
/// the reverse lane over the prefix from the suffix's. Both lanes walk
/// the suffix in one loop, with no reversed copy.
pub(crate) fn content_key_split(prefix: &[u8], suffix: &[u8]) -> String {
    let (a, b) = suffix.iter().zip(suffix.iter().rev()).fold(
        (fnv1a64_from(FNV_OFFSET, prefix), FNV_OFFSET),
        |(a, b), (&f, &r)| (fnv_step(a, f), fnv_step(b, r)),
    );
    key_hex(a, fnv1a64_rev_from(b, prefix))
}

/// A 32-hex-digit content key: two independent FNV-1a passes (forward
/// and salted, i.e. over the reversed bytes) to push collision odds far
/// below any realistic sweep size. Both passes run in one loop, with no
/// reversed copy.
pub fn content_key(input: &str) -> String {
    content_key_split(b"", input.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_stable_and_distinct() {
        let k1 = content_key("combo=ammp|budget=quick");
        assert_eq!(k1, content_key("combo=ammp|budget=quick"), "stable");
        assert_eq!(k1.len(), 32);
        assert!(k1.chars().all(|c| c.is_ascii_hexdigit()));
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

    /// The key of `prefix ++ suffix` three ways — split, from the
    /// suffix's pre-hashed reverse state, and fanned with its group's
    /// other suffixes — all equal to [`content_key`] of the joined
    /// string.
    fn assert_piecewise_keys_match(prefix: &str, suffixes: &[String]) {
        let forward = fnv1a64_fan(fnv1a64(prefix.as_bytes()), suffixes);
        assert_eq!(forward.len(), suffixes.len());
        for (suffix, forward) in suffixes.iter().zip(forward) {
            let reference = content_key(&format!("{prefix}{suffix}"));
            let (p, s) = (prefix.as_bytes(), suffix.as_bytes());
            assert_eq!(
                content_key_split(p, s),
                reference,
                "{prefix:?} + {suffix:?}"
            );
            let reverse = fnv1a64_rev_from(fnv1a64_rev_from(FNV_OFFSET, s), p);
            assert_eq!(
                key_hex(forward, reverse),
                reference,
                "{prefix:?} + {suffix:?}"
            );
        }
    }

    #[test]
    fn piecewise_keys_cover_empty_pieces_and_every_group_size() {
        assert_piecewise_keys_match("", &[String::new()]);
        let suffixes: Vec<String> = (0..9).map(|n| "é|x".repeat(n)).collect();
        for size in 1..=suffixes.len() {
            for prefix in ["", "snug-harness/v2|Combo|"] {
                assert_piecewise_keys_match(prefix, &suffixes[..size]);
                let longest_first: Vec<String> = suffixes[..size].iter().rev().cloned().collect();
                assert_piecewise_keys_match(prefix, &longest_first);
            }
        }
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
            prefix in proptest::collection::vec(0u32..0x800, 0..24),
            suffixes in proptest::collection::vec(proptest::collection::vec(0u32..0x11_0000, 0..40), 1..=9),
        ) {
            let suffixes: Vec<String> = suffixes.iter().map(|s| text(s)).collect();
            assert_piecewise_keys_match(&text(&prefix), &suffixes);
        }
    }
}
