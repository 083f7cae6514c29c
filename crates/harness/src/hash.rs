//! Stable content hashing for job keys.
//!
//! The result store is content-addressed: a job's key is a hash of
//! everything that determines its output — the workload combo, the full
//! `CompareConfig` (scheme parameters, platform, budget) and a schema
//! version. The simulators are deterministic, so equal keys imply equal
//! results. FNV-1a (64-bit) is stable across runs and platforms, unlike
//! `std::hash`'s randomised `DefaultHasher`.

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01B3;

/// One FNV-1a step.
fn fnv_step(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(FNV_PRIME)
}

/// FNV-1a over a byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| fnv_step(h, b))
}

/// A 32-hex-digit content key: two independent FNV-1a passes (forward
/// and salted, i.e. over the reversed bytes) to push collision odds far
/// below any realistic sweep size. Both passes run in one loop, with no
/// reversed copy.
pub fn content_key(input: &str) -> String {
    let bytes = input.as_bytes();
    let (a, b) = bytes
        .iter()
        .zip(bytes.iter().rev())
        .fold((FNV_OFFSET, FNV_OFFSET), |(a, b), (&f, &r)| {
            (fnv_step(a, f), fnv_step(b, r))
        });
    format!("{a:016x}{b:016x}")
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
}
