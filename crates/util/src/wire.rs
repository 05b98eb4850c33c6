//! The bounded little-endian reader every on-disk decoder (WSP1 shards,
//! WSE1 cache headers, WSX1 snapshots and the
//! [`LocalHistogram`](crate::LocalHistogram) inside them) reads through.
//! Each read checks its length against [`Reader::remaining`] before it
//! touches a byte, and nothing here allocates, so a lying length field
//! costs a comparison.

/// A read that asked for more bytes than the buffer had left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShortRead;

/// A cursor over a borrowed byte buffer. Every read fails with
/// [`ShortRead`] when fewer bytes remain than it asks for, and a failed
/// read consumes nothing.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes }
    }

    /// Bytes not yet read.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len()
    }

    /// The next `n` bytes, borrowed from the buffer.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ShortRead> {
        if n > self.bytes.len() {
            return Err(ShortRead);
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    /// The next `N` bytes as an array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], ShortRead> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, ShortRead> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ShortRead> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ShortRead> {
        self.array().map(u64::from_le_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_decode_little_endian_in_order() {
        let bytes = [1, 0, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 9, 8, 7];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u16(), Ok(1));
        assert_eq!(r.u32(), Ok(2));
        assert_eq!(r.u64(), Ok(3));
        assert_eq!(r.array::<2>(), Ok([9, 8]));
        assert_eq!(r.take(1), Ok(&[7u8][..]));
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.take(0), Ok(&[][..]));
    }

    #[test]
    fn a_read_of_exactly_the_remaining_bytes_succeeds() {
        let bytes = [0xAA; 8];
        assert_eq!(Reader::new(&bytes).take(8), Ok(&bytes[..]));
        assert_eq!(Reader::new(&bytes).u64(), Ok(u64::from_le_bytes(bytes)));
        assert_eq!(Reader::new(&bytes[..4]).u32(), Ok(0xAAAA_AAAA));
        assert_eq!(Reader::new(&bytes[..2]).u16(), Ok(0xAAAA));
        assert_eq!(Reader::new(&bytes).array::<8>(), Ok(bytes));
    }

    #[test]
    fn a_read_one_byte_too_long_fails_and_consumes_nothing() {
        let bytes = [0x55; 8];
        for len in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..len]);
            assert_eq!(r.take(len + 1), Err(ShortRead));
            assert_eq!(r.remaining(), len, "a failed read consumed bytes");
        }
        assert_eq!(Reader::new(&bytes[..1]).u16(), Err(ShortRead));
        assert_eq!(Reader::new(&bytes[..3]).u32(), Err(ShortRead));
        assert_eq!(Reader::new(&bytes[..7]).u64(), Err(ShortRead));
        assert_eq!(Reader::new(&bytes[..7]).array::<8>(), Err(ShortRead));
    }

    #[test]
    fn a_lying_length_is_an_error_not_an_allocation() {
        // `take` returns a borrowed slice, so no length can size an
        // allocation; `tests/alloc_budget.rs` counts the same read at 0.
        let bytes = [1u8, 2, 3];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.take(u32::MAX as usize), Err(ShortRead));
        assert_eq!(r.take(usize::MAX), Err(ShortRead));
        // The reader is still usable after the failed reads.
        assert_eq!(r.take(3), Ok(&bytes[..]));
    }
}
