//! Byte encoding of generator and cache state for checkpoints.
//!
//! A checkpoint captures everything a component's future behaviour
//! depends on, so that restoring it into a component built the same way
//! continues bit-identically. Writers append little-endian fields to a
//! `Vec<u8>`; [`StateReader`] reads them back, and every read of a
//! truncated or malformed state is a [`StateError`], never a panic.

/// Why a checkpointed state could not be restored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateError {
    /// The bytes ended inside a field.
    Truncated,
    /// Bytes were left over after the last field.
    TrailingBytes,
    /// A field held a value the component cannot be in; names the
    /// field.
    Invalid(&'static str),
    /// The component does not support checkpoints.
    Unsupported,
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::Truncated => write!(f, "checkpoint truncated"),
            StateError::TrailingBytes => write!(f, "trailing bytes after the checkpoint"),
            StateError::Invalid(field) => write!(f, "checkpoint field `{field}` out of range"),
            StateError::Unsupported => write!(f, "state cannot be checkpointed"),
        }
    }
}

impl std::error::Error for StateError {}

/// Append a little-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// Append a little-endian `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// Append a little-endian `u16`.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, x: u16) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// Append an `f64` by its bits.
#[inline]
pub fn put_f64(out: &mut Vec<u8>, x: f64) {
    put_u64(out, x.to_bits());
}

/// Append a count as a `u64`.
#[inline]
pub fn put_count(out: &mut Vec<u8>, n: usize) {
    put_u64(out, n as u64);
}

/// A cursor over checkpointed bytes.
#[derive(Debug)]
pub struct StateReader<'a> {
    rest: &'a [u8],
}

impl<'a> StateReader<'a> {
    /// Read from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        StateReader { rest: bytes }
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], StateError> {
        if self.rest.len() < n {
            return Err(StateError::Truncated);
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], StateError> {
        let (head, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or(StateError::Truncated)?;
        self.rest = rest;
        Ok(*head)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, StateError> {
        Ok(self.array::<1>()?[0])
    }

    /// The next little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, StateError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, StateError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, StateError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// The next `f64`, which must be finite.
    pub fn finite_f64(&mut self, field: &'static str) -> Result<f64, StateError> {
        let x = f64::from_bits(self.u64()?);
        if x.is_finite() {
            Ok(x)
        } else {
            Err(StateError::Invalid(field))
        }
    }

    /// The next count, written by [`put_count`].
    pub fn count(&mut self, field: &'static str) -> Result<usize, StateError> {
        usize::try_from(self.u64()?).map_err(|_| StateError::Invalid(field))
    }

    /// Succeed only if every byte has been read.
    pub fn finish(self) -> Result<(), StateError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(StateError::TrailingBytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_round_trip_and_truncation_is_an_error() {
        let mut out = Vec::new();
        put_u64(&mut out, u64::MAX - 3);
        put_u32(&mut out, 7);
        put_u16(&mut out, 9);
        out.push(4);
        put_f64(&mut out, 0.25);
        put_count(&mut out, 12);
        let mut r = StateReader::new(&out);
        assert_eq!(r.u64(), Ok(u64::MAX - 3));
        assert_eq!(r.u32(), Ok(7));
        assert_eq!(r.u16(), Ok(9));
        assert_eq!(r.u8(), Ok(4));
        assert_eq!(r.finite_f64("x"), Ok(0.25));
        assert_eq!(r.count("n"), Ok(12));
        assert_eq!(r.finish(), Ok(()));
        for cut in 0..out.len() {
            let mut r = StateReader::new(&out[..cut]);
            let all = (|| {
                r.u64()?;
                r.u32()?;
                r.u16()?;
                r.u8()?;
                r.finite_f64("x")?;
                r.count("n")
            })();
            assert_eq!(all, Err(StateError::Truncated), "cut at {cut}");
        }
        let mut nan = Vec::new();
        put_f64(&mut nan, f64::NAN);
        assert_eq!(
            StateReader::new(&nan).finite_f64("w"),
            Err(StateError::Invalid("w"))
        );
        assert_eq!(
            StateReader::new(&[1]).finish(),
            Err(StateError::TrailingBytes)
        );
    }
}
