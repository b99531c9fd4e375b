//! FNV-1a 64, the workspace's one byte-stream hash.
//!
//! It checksums trace containers (`docs/TRACE_FORMAT.md`) and result-cache
//! entries (`docs/RESULT_FORMAT.md`), names result-cache files, and
//! fingerprints the engine epoch: simple, dependency-free, specified in
//! one line.

/// FNV-1a 64-bit offset basis — the hash of zero bytes.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64 hasher: feeding bytes in several
/// [`update`](Fnv1a64::update) calls hashes their concatenation.
///
/// # Examples
///
/// ```
/// use dvp_trace::Fnv1a64;
///
/// let mut fnv = Fnv1a64::new();
/// fnv.update(b"foo").update(b"bar");
/// assert_eq!(fnv.finish(), Fnv1a64::hash(b"foobar"));
/// assert_eq!(Fnv1a64::hash(b"foobar"), 0x8594_4171_f739_67e8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64::new()
    }
}

impl Fnv1a64 {
    /// A hasher that has seen no bytes.
    #[must_use]
    pub const fn new() -> Self {
        Fnv1a64(OFFSET)
    }

    /// Feeds `bytes`; returns `self` so calls chain.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
        self
    }

    /// The hash of every byte fed so far.
    #[must_use]
    pub const fn finish(self) -> u64 {
        self.0
    }

    /// FNV-1a 64 of one byte slice.
    #[must_use]
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut fnv = Fnv1a64::new();
        fnv.update(bytes);
        fnv.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answers() {
        assert_eq!(Fnv1a64::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a64::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a64::hash(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
