//! Word-at-a-time byte-scanning primitives for the extraction hot path.
//!
//! Every scanner in `webstruct-extract` used to walk page text `char` by
//! `char` through a per-character FSM — 1–2 orders of magnitude below what
//! byte-level skipping achieves on the same hardware. This module provides
//! the std-only, dependency-free kernels those scanners now skip with:
//!
//! * [`memchr`] / [`memchr2`] / [`memchr3`] — first occurrence of one of
//!   up to three bytes, processing a word (or a 16-byte SSE2 vector on
//!   x86_64, where SSE2 is part of the architecture baseline) per step;
//! * [`find_ascii_ci`] — ASCII case-insensitive substring search, built on
//!   [`memchr2`] candidate skipping;
//! * [`ByteTable`] — a 256-entry byte-class membership table with a
//!   skip-scan ([`ByteTable::find_in`]) that jumps straight to the next
//!   interesting byte (digit-run starts, token starts, tag opens);
//! * [`find_ascii_digit`] — SWAR range scan for `b'0'..=b'9'`, the
//!   digit-run entry point of the phone and ISBN scanners;
//! * [`letter_mask64`] — one `u64` per 64-byte block marking the bytes
//!   that are an ASCII letter or `>= 0x80`: the token-run bitmask the
//!   block-parallel Naïve Bayes scorer walks with `trailing_zeros`;
//! * [`classes64`] — the four byte classes of a 64-byte block (letters,
//!   digits, `(`/`+`, `b`/`B`) in one pass: the per-page class index the
//!   phone, ISBN-marker and Naïve Bayes scans share, with [`blocks64`]
//!   mapping any block kernel over a whole slice.
//!
//! ## UTF-8 safety argument
//!
//! Every kernel here searches for **ASCII** bytes (`< 0x80`). UTF-8
//! guarantees that bytes of multibyte sequences are all `>= 0x80`, so an
//! ASCII byte found at offset `i` of a valid UTF-8 string is always a
//! whole character and `i` is always a character boundary. Callers may
//! therefore slice `&str` at any offset these functions return without
//! re-validating boundaries. Tables that deliberately include `0x80..`
//! (e.g. the tokenizer's "token start" class) land on the *leading* byte
//! of a multibyte character for the same reason: continuation bytes are
//! only reached by starting inside a sequence, which the scanners never
//! do because they always advance by whole matches.
//!
//! Correctness is locked down by seeded differential property tests at
//! the bottom of this file: every primitive is compared against a naive
//! scalar reference on adversarial inputs (needles at word boundaries,
//! needles straddling the 8/16-byte steps, multibyte neighbourhoods).

/// Lowest byte of every lane set: `0x0101…01`.
const LO: u64 = 0x0101_0101_0101_0101;
/// Highest bit of every lane set: `0x8080…80`.
const HI: u64 = 0x8080_8080_8080_8080;

/// Broadcast a byte into all eight lanes of a word.
#[inline(always)]
const fn splat(b: u8) -> u64 {
    LO * b as u64
}

/// Per-lane zero detector: the high bit of each lane of the result is set
/// if that lane of `x` is zero. False positives can only occur in lanes
/// *above* (more significant than) a true zero lane, so the lowest set
/// bit always marks a real zero — exactly what little-endian
/// `trailing_zeros` consumes.
#[inline(always)]
const fn zero_lanes(x: u64) -> u64 {
    x.wrapping_sub(LO) & !x & HI
}

/// Per-lane ASCII-digit detector (`0x30..=0x39`), the bit-twiddling
/// "byte between m and n" range test. Exact for this range: all masks
/// stay within their lanes (no inter-lane carries), so every lane's high
/// bit is set iff that byte is a digit.
#[inline(always)]
const fn digit_lanes(x: u64) -> u64 {
    // m < b < n with m = 0x2F, n = 0x3A  ⇔  b'0' <= b <= b'9'.
    const N: u64 = splat(127 + 0x3A);
    const M: u64 = splat(127 - 0x2F);
    N.wrapping_sub(x & !HI) & !x & (x & !HI).wrapping_add(M) & HI
}

/// Lane index (0..8) of the lowest set high-bit in a detector mask.
#[inline(always)]
const fn first_lane(mask: u64) -> usize {
    (mask.trailing_zeros() / 8) as usize
}

/// First occurrence of `n1` in `hay`, scanning a word (or SSE2 vector)
/// at a time.
#[must_use]
pub fn memchr(n1: u8, hay: &[u8]) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    {
        memchr_sse2(n1, hay)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        memchr_swar(n1, hay)
    }
}

/// First occurrence of `n1` or `n2` in `hay`.
#[must_use]
pub fn memchr2(n1: u8, n2: u8, hay: &[u8]) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    {
        memchr2_sse2(n1, n2, hay)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        memchr2_swar(n1, n2, hay)
    }
}

/// First occurrence of `n1`, `n2` or `n3` in `hay`.
#[must_use]
pub fn memchr3(n1: u8, n2: u8, n3: u8, hay: &[u8]) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    {
        memchr3_sse2(n1, n2, n3, hay)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        memchr3_swar(n1, n2, n3, hay)
    }
}

/// First ASCII digit (`b'0'..=b'9'`) at or after `from`.
#[must_use]
pub fn find_ascii_digit(hay: &[u8], from: usize) -> Option<usize> {
    if from >= hay.len() {
        return None;
    }
    let hay = &hay[from..];
    let mut chunks = hay.chunks_exact(8);
    let mut base = 0usize;
    for chunk in chunks.by_ref() {
        let w = u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8 bytes"));
        let m = digit_lanes(w);
        if m != 0 {
            return Some(from + base + first_lane(m));
        }
        base += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(u8::is_ascii_digit)
        .map(|p| from + base + p)
}

/// Bitmask of the token bytes of a 64-byte block: bit `i` is set iff
/// `block[i]` is an ASCII letter or `>= 0x80` (the tokenizer's token-start
/// class). Every ASCII non-letter is clear, so the set-bit runs are the
/// stretches of text between ASCII separators.
///
/// Callers with a short tail copy it into a zeroed block first: `0x00`
/// is not a token byte, so padding never extends a run.
#[must_use]
pub fn letter_mask64(block: &[u8; 64]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        sse2::letter_mask64(block)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        letter_mask64_swar(block)
    }
}

/// The byte classes of one 64-byte block, one bit per byte: bit `i` of
/// each mask describes `block[i]`. This is the stage-1 structural index
/// of simdjson (Langdale & Lemire, VLDB J. 2019) for page text: computed
/// once per block, then walked by every scanner with `trailing_zeros`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Classes64 {
    /// ASCII letters and bytes `>= 0x80`: exactly [`letter_mask64`].
    pub letters: u64,
    /// ASCII digits `b'0'..=b'9'`.
    pub digits: u64,
    /// `(` and `+`, the non-digit bytes a phone number can start with.
    pub paren_plus: u64,
    /// `b` and `B`, the third byte of an `isbn` marker.
    pub b: u64,
}

/// The [`Classes64`] of a 64-byte block. Callers with a short tail
/// zero-pad it (see [`blocks64`]): `0x00` is in no class.
#[must_use]
pub fn classes64(block: &[u8; 64]) -> Classes64 {
    #[cfg(target_arch = "x86_64")]
    {
        sse2::classes64(block)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        classes64_swar(block)
    }
}

/// `kernel` applied to each 64-byte block of `bytes`, in order. The short
/// last block is copied into a zeroed block first, so nothing past the
/// slice is read and the padding lands in no class.
pub fn blocks64<'a, T>(
    bytes: &'a [u8],
    kernel: impl Fn(&[u8; 64]) -> T + 'a,
) -> impl Iterator<Item = T> + 'a {
    bytes
        .chunks(64)
        .map(move |chunk| match <&[u8; 64]>::try_from(chunk) {
            Ok(block) => kernel(block),
            Err(_) => {
                let mut tail = [0u8; 64];
                tail[..chunk.len()].copy_from_slice(chunk);
                kernel(&tail)
            }
        })
}

/// Per-lane equality detector: the high bit of a lane is set iff that
/// byte of `x` is `b`. Exact, unlike [`zero_lanes`]: the low seven bits
/// are tested with an add that cannot carry out of its lane.
#[inline(always)]
const fn eq_lanes(x: u64, b: u8) -> u64 {
    let y = x ^ splat(b);
    !((y & !HI).wrapping_add(!HI) | y) & HI
}

/// Gather the eight lane high bits of a detector mask into bits 0..8:
/// lane `i`'s bit lands on bit 56 + i of the product, and the partial
/// products of other lanes fall off the top or stay below bit 56
/// without carries.
#[inline(always)]
const fn gather(lanes: u64) -> u64 {
    (lanes >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

#[allow(dead_code)]
fn classes64_swar(block: &[u8; 64]) -> Classes64 {
    let mut c = Classes64::default();
    for (k, chunk) in block.chunks_exact(8).enumerate() {
        let w = u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8 bytes"));
        let at = 8 * k;
        c.letters |= gather(letter_lanes(w)) << at;
        c.digits |= gather(digit_lanes(w)) << at;
        c.paren_plus |= gather(eq_lanes(w, b'(') | eq_lanes(w, b'+')) << at;
        // `| 0x20` maps exactly `B` and `b` to `b`.
        c.b |= gather(eq_lanes(w | splat(0x20), b'b')) << at;
    }
    c
}

/// Per-lane token-byte detector: the high bit of a lane is set iff the
/// byte is `>= 0x80` or, folded to lowercase with `| 0x20`, lies in
/// `b'a'..=b'z'`. The letter test is the same exact range trick as
/// [`digit_lanes`], on the folded word.
#[inline(always)]
const fn letter_lanes(x: u64) -> u64 {
    // m < b < n with m = 0x60, n = 0x7B  ⇔  b'a' <= b <= b'z'.
    const N: u64 = splat(127 + 0x7B);
    const M: u64 = splat(127 - 0x60);
    let l = x | splat(0x20);
    let letters = N.wrapping_sub(l & !HI) & !l & (l & !HI).wrapping_add(M) & HI;
    letters | (x & HI)
}

#[allow(dead_code)]
fn letter_mask64_swar(block: &[u8; 64]) -> u64 {
    let mut mask = 0u64;
    for (k, chunk) in block.chunks_exact(8).enumerate() {
        let w = u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8 bytes"));
        mask |= gather(letter_lanes(w)) << (8 * k);
    }
    mask
}

macro_rules! swar_memchr {
    ($name:ident, $($n:ident),+) => {
        #[allow(dead_code)]
        fn $name($($n: u8,)+ hay: &[u8]) -> Option<usize> {
            $(let $n = splat($n);)+
            let mut chunks = hay.chunks_exact(8);
            let mut base = 0usize;
            for chunk in chunks.by_ref() {
                let w = u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8 bytes"));
                let m = $(zero_lanes(w ^ $n))|+;
                if m != 0 {
                    return Some(base + first_lane(m));
                }
                base += 8;
            }
            let tail = chunks.remainder();
            tail.iter()
                .position(|&b| { let b = splat(b); false $(|| b == $n)+ })
                .map(|p| base + p)
        }
    };
}

swar_memchr!(memchr_swar, n1);
swar_memchr!(memchr2_swar, n1, n2);
swar_memchr!(memchr3_swar, n1, n2, n3);

#[cfg(target_arch = "x86_64")]
mod sse2 {
    //! 16-bytes-at-a-time variants. SSE2 is part of the x86_64 baseline,
    //! so these need no runtime feature detection.
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_cmpeq_epi8, _mm_cmpgt_epi8, _mm_loadu_si128,
        _mm_movemask_epi8, _mm_or_si128, _mm_set1_epi8,
    };

    /// Token-byte mask of the 16 bytes in `v`; see
    /// [`super::letter_mask64`]. Signed compares do the range test: a
    /// byte `>= 0x80` is negative, so it fails `> 0x60` after folding
    /// and is picked up by the movemask of its own sign bit instead.
    ///
    /// # Safety
    /// Needs only SSE2, which every x86_64 CPU has.
    #[inline(always)]
    unsafe fn letters16(v: __m128i) -> u32 {
        let l = _mm_or_si128(v, _mm_set1_epi8(0x20));
        let letter = _mm_and_si128(
            _mm_cmpgt_epi8(l, _mm_set1_epi8(0x60)),
            _mm_cmpgt_epi8(_mm_set1_epi8(0x7B), l),
        );
        _mm_movemask_epi8(_mm_or_si128(letter, v)) as u32
    }

    /// The 16 bytes at `block[16 * k..]`.
    #[inline(always)]
    fn load16(block: &[u8; 64], k: usize) -> __m128i {
        let chunk = &block[16 * k..16 * k + 16];
        // SAFETY: `chunk` is 16 readable bytes; loadu has no alignment
        // requirement.
        unsafe { _mm_loadu_si128(chunk.as_ptr().cast::<__m128i>()) }
    }

    pub(super) fn letter_mask64(block: &[u8; 64]) -> u64 {
        let mut mask = 0u64;
        for k in 0..4 {
            // SAFETY: SSE2 is part of the x86_64 baseline.
            let m = unsafe { letters16(load16(block, k)) };
            mask |= u64::from(m) << (16 * k);
        }
        mask
    }

    pub(super) fn classes64(block: &[u8; 64]) -> super::Classes64 {
        let mut c = super::Classes64::default();
        for k in 0..4 {
            let v = load16(block, k);
            let at = 16 * k;
            // SAFETY: SSE2 is part of the x86_64 baseline. Every lane
            // mask is a movemask, so only bits 0..16 can be set.
            unsafe {
                c.letters |= u64::from(letters16(v)) << at;
                let digit = _mm_and_si128(
                    _mm_cmpgt_epi8(v, _mm_set1_epi8(0x2F)),
                    _mm_cmpgt_epi8(_mm_set1_epi8(0x3A), v),
                );
                c.digits |= u64::from(_mm_movemask_epi8(digit) as u32) << at;
                let open = _mm_or_si128(
                    _mm_cmpeq_epi8(v, _mm_set1_epi8(b'(' as i8)),
                    _mm_cmpeq_epi8(v, _mm_set1_epi8(b'+' as i8)),
                );
                c.paren_plus |= u64::from(_mm_movemask_epi8(open) as u32) << at;
                let folded = _mm_or_si128(v, _mm_set1_epi8(0x20));
                let b = _mm_cmpeq_epi8(folded, _mm_set1_epi8(b'b' as i8));
                c.b |= u64::from(_mm_movemask_epi8(b) as u32) << at;
            }
        }
        c
    }

    /// Match mask of `chunk` (16 bytes) against up to three needles; bit
    /// `i` of the result is set iff byte `i` equals one of them.
    ///
    /// SAFETY contract (callers): `chunk` must point at 16 readable bytes.
    #[inline(always)]
    unsafe fn mask3(chunk: *const u8, n1: u8, n2: u8, n3: Option<u8>) -> u32 {
        // SAFETY: caller guarantees 16 readable bytes; loadu has no
        // alignment requirement.
        let v = unsafe { _mm_loadu_si128(chunk.cast::<__m128i>()) };
        let m1 = _mm_cmpeq_epi8(v, _mm_set1_epi8(n1 as i8));
        let m2 = _mm_cmpeq_epi8(v, _mm_set1_epi8(n2 as i8));
        let mut m = _mm_or_si128(m1, m2);
        if let Some(n3) = n3 {
            m = _mm_or_si128(m, _mm_cmpeq_epi8(v, _mm_set1_epi8(n3 as i8)));
        }
        _mm_movemask_epi8(m) as u32
    }

    pub(super) fn find(hay: &[u8], n1: u8, n2: u8, n3: Option<u8>) -> Option<usize> {
        let mut i = 0usize;
        while i + 16 <= hay.len() {
            // SAFETY: `i + 16 <= hay.len()` guarantees 16 readable bytes.
            let m = unsafe { mask3(hay.as_ptr().add(i), n1, n2, n3) };
            if m != 0 {
                return Some(i + m.trailing_zeros() as usize);
            }
            i += 16;
        }
        hay[i..]
            .iter()
            .position(|&b| b == n1 || b == n2 || n3 == Some(b))
            .map(|p| i + p)
    }
}

#[cfg(target_arch = "x86_64")]
fn memchr_sse2(n1: u8, hay: &[u8]) -> Option<usize> {
    sse2::find(hay, n1, n1, None)
}

#[cfg(target_arch = "x86_64")]
fn memchr2_sse2(n1: u8, n2: u8, hay: &[u8]) -> Option<usize> {
    sse2::find(hay, n1, n2, None)
}

#[cfg(target_arch = "x86_64")]
fn memchr3_sse2(n1: u8, n2: u8, n3: u8, hay: &[u8]) -> Option<usize> {
    sse2::find(hay, n1, n2, Some(n3))
}

/// First occurrence of `needle` in `hay`, matching ASCII letters
/// case-insensitively. The needle must be pure ASCII (checked by
/// `debug_assert`); an empty needle matches at offset 0.
///
/// The scan skips to candidate positions with [`memchr2`] on the two
/// cases of the needle's first byte, then verifies the remainder with
/// `eq_ignore_ascii_case` — so haystack bytes that cannot start a match
/// are never touched one at a time.
#[must_use]
pub fn find_ascii_ci(hay: &[u8], needle: &[u8]) -> Option<usize> {
    debug_assert!(needle.is_ascii(), "find_ascii_ci needle must be ASCII");
    let Some((&first, rest)) = needle.split_first() else {
        return Some(0);
    };
    if needle.len() > hay.len() {
        return None;
    }
    let (lo, up) = (first.to_ascii_lowercase(), first.to_ascii_uppercase());
    let mut i = 0usize;
    let last_start = hay.len() - needle.len();
    while i <= last_start {
        // Candidate starts past `last_start` cannot fit the needle, so
        // the skip scan is bounded to the viable window.
        let p = i + memchr2(lo, up, &hay[i..=last_start])?;
        if hay[p + 1..p + needle.len()].eq_ignore_ascii_case(rest) {
            return Some(p);
        }
        i = p + 1;
    }
    None
}

/// A 256-entry byte-class membership table: the skip tables the scanners
/// jump with. Built in `const` context so every class the workspace uses
/// is a `static` with zero startup cost.
#[derive(Debug, Clone)]
pub struct ByteTable {
    member: [bool; 256],
}

impl ByteTable {
    /// Table containing exactly the bytes of `members`.
    #[must_use]
    pub const fn new(members: &[u8]) -> Self {
        let mut member = [false; 256];
        let mut i = 0;
        while i < members.len() {
            member[members[i] as usize] = true;
            i += 1;
        }
        ByteTable { member }
    }

    /// Add the inclusive byte range `lo..=hi` to the class.
    #[must_use]
    pub const fn with_range(mut self, lo: u8, hi: u8) -> Self {
        let mut b = lo as usize;
        while b <= hi as usize {
            self.member[b] = true;
            b += 1;
        }
        ByteTable {
            member: self.member,
        }
    }

    /// Whether `b` is in the class.
    #[inline(always)]
    #[must_use]
    pub fn contains(&self, b: u8) -> bool {
        self.member[b as usize]
    }

    /// Index of the first class member at or after `from`, skipping
    /// non-members four at a time.
    #[must_use]
    pub fn find_in(&self, hay: &[u8], from: usize) -> Option<usize> {
        if from >= hay.len() {
            return None;
        }
        let mut i = from;
        // Unrolled by four: one predictable branch per four loads keeps
        // the skip loop at ~1 byte/cycle without any per-class SIMD.
        while i + 4 <= hay.len() {
            if self.member[hay[i] as usize] {
                return Some(i);
            }
            if self.member[hay[i + 1] as usize] {
                return Some(i + 1);
            }
            if self.member[hay[i + 2] as usize] {
                return Some(i + 2);
            }
            if self.member[hay[i + 3] as usize] {
                return Some(i + 3);
            }
            i += 4;
        }
        while i < hay.len() {
            if self.member[hay[i] as usize] {
                return Some(i);
            }
            i += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Seed, Xoshiro256};

    // ---- naive scalar references -------------------------------------

    fn ref_memchr3(n: &[u8], hay: &[u8]) -> Option<usize> {
        hay.iter().position(|b| n.contains(b))
    }

    fn ref_find_ci(hay: &[u8], needle: &[u8]) -> Option<usize> {
        if needle.is_empty() {
            return Some(0);
        }
        if needle.len() > hay.len() {
            return None;
        }
        (0..=hay.len() - needle.len())
            .find(|&i| hay[i..i + needle.len()].eq_ignore_ascii_case(needle))
    }

    fn ref_find_digit(hay: &[u8], from: usize) -> Option<usize> {
        hay.iter()
            .enumerate()
            .skip(from)
            .find(|(_, b)| b.is_ascii_digit())
            .map(|(i, _)| i)
    }

    // ---- deterministic adversarial corpus ----------------------------

    /// Random haystacks biased toward word-boundary adversaries: needles
    /// planted at offsets 0, 7, 8, 15, 16 and len-1 so every match
    /// position relative to the 8-byte SWAR / 16-byte SSE2 step occurs.
    fn adversarial_haystacks() -> Vec<Vec<u8>> {
        let mut rng = Xoshiro256::from_seed(Seed(0xB17E));
        let mut out = Vec::new();
        for len in [0usize, 1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 100, 257] {
            for _ in 0..8 {
                let mut hay: Vec<u8> = (0..len)
                    .map(|_| (rng.u64_below(96) as u8) + b' ') // printable ASCII
                    .collect();
                // Sprinkle multibyte UTF-8 and high bytes.
                if len >= 4 && rng.bool_with(0.5) {
                    let at = rng.u64_below(len as u64 - 3) as usize;
                    hay[at..at + 2].copy_from_slice("é".as_bytes());
                }
                // Plant the probe bytes at step-boundary offsets.
                for &at in &[0usize, 7, 8, 15, 16, len.saturating_sub(1)] {
                    if at < len && rng.bool_with(0.4) {
                        hay[at] = *[b'<', b'>', b'0', b'9', b'x', 0x80, 0xFF]
                            .get(rng.u64_below(7) as usize)
                            .expect("index < 7");
                    }
                }
                out.push(hay);
            }
        }
        out
    }

    #[test]
    fn memchr_family_matches_reference_on_adversarial_inputs() {
        for hay in adversarial_haystacks() {
            for &a in &[b'<', b'0', b'x', 0x80u8, 0xFFu8, b' '] {
                assert_eq!(memchr(a, &hay), ref_memchr3(&[a], &hay), "memchr {a:#x} {hay:?}");
                assert_eq!(
                    memchr_swar(a, &hay),
                    ref_memchr3(&[a], &hay),
                    "swar memchr {a:#x} {hay:?}"
                );
                for &b in b">9+" {
                    assert_eq!(
                        memchr2(a, b, &hay),
                        ref_memchr3(&[a, b], &hay),
                        "memchr2 {a:#x},{b:#x} {hay:?}"
                    );
                    assert_eq!(memchr2_swar(a, b, &hay), ref_memchr3(&[a, b], &hay));
                    for &c in b"(-" {
                        assert_eq!(
                            memchr3(a, b, c, &hay),
                            ref_memchr3(&[a, b, c], &hay),
                            "memchr3 {a:#x},{b:#x},{c:#x} {hay:?}"
                        );
                        assert_eq!(memchr3_swar(a, b, c, &hay), ref_memchr3(&[a, b, c], &hay));
                    }
                }
            }
        }
    }

    #[test]
    fn find_ascii_digit_matches_reference() {
        for hay in adversarial_haystacks() {
            for from in 0..=hay.len().min(20) {
                assert_eq!(
                    find_ascii_digit(&hay, from),
                    ref_find_digit(&hay, from),
                    "digits from {from} in {hay:?}"
                );
            }
            // Out-of-range from is None, not a panic.
            assert_eq!(find_ascii_digit(&hay, hay.len() + 1), None);
        }
        // Every byte value classifies correctly (range-trick exactness).
        for b in 0u8..=255 {
            let hay = [b; 9];
            assert_eq!(
                find_ascii_digit(&hay, 0).is_some(),
                b.is_ascii_digit(),
                "byte {b:#x}"
            );
        }
    }

    #[test]
    fn find_ascii_ci_matches_reference() {
        let needles: &[&[u8]] = &[b"isbn", b"href", b"a", b"", b"xyzzy", b"ISBN"];
        for hay in adversarial_haystacks() {
            for needle in needles {
                assert_eq!(
                    find_ascii_ci(&hay, needle),
                    ref_find_ci(&hay, needle),
                    "needle {needle:?} in {hay:?}"
                );
            }
        }
        // Explicit boundary cases: needle at start, end, straddling the
        // 8- and 16-byte steps, and case-mixed.
        let hay = b"IsBnxxxxxisbNxxxxxxxxxxxxxxxxxISBN";
        assert_eq!(find_ascii_ci(hay, b"isbn"), Some(0));
        assert_eq!(find_ascii_ci(&hay[1..], b"isbn"), Some(8));
        assert_eq!(find_ascii_ci(&hay[14..], b"isbn"), Some(16));
        assert_eq!(find_ascii_ci(b"isb", b"isbn"), None);
        assert_eq!(find_ascii_ci(b"", b"isbn"), None);
        assert_eq!(find_ascii_ci(b"", b""), Some(0));
    }

    #[test]
    fn byte_table_find_matches_reference() {
        static DIGITS: ByteTable = ByteTable::new(&[]).with_range(b'0', b'9');
        static PHONE: ByteTable = ByteTable::new(b"(+").with_range(b'0', b'9');
        for hay in adversarial_haystacks() {
            for from in 0..=hay.len().min(20) {
                assert_eq!(DIGITS.find_in(&hay, from), ref_find_digit(&hay, from));
                assert_eq!(
                    PHONE.find_in(&hay, from),
                    hay.iter()
                        .enumerate()
                        .skip(from)
                        .find(|(_, b)| b.is_ascii_digit() || **b == b'(' || **b == b'+')
                        .map(|(i, _)| i),
                    "phone class from {from} in {hay:?}"
                );
            }
        }
        assert!(DIGITS.contains(b'5'));
        assert!(!DIGITS.contains(b'a'));
        assert!(PHONE.contains(b'+'));
    }

    fn ref_letter_mask(block: &[u8; 64]) -> u64 {
        block
            .iter()
            .enumerate()
            .filter(|(_, b)| b.is_ascii_alphabetic() || **b >= 0x80)
            .fold(0, |m, (i, _)| m | 1 << i)
    }

    /// Blocks that put every byte value in every lane of both the 16-byte
    /// (SSE2) and the 8-byte (SWAR) steps, the adversarial haystacks as
    /// zero-padded blocks, and literal class edges.
    fn adversarial_blocks() -> Vec<[u8; 64]> {
        let mut blocks: Vec<[u8; 64]> = Vec::new();
        // Every byte value in every lane position of both 16-byte (SSE2)
        // and 8-byte (SWAR) steps.
        for b in 0u8..=255 {
            blocks.push([b; 64]);
            let mut alt = [b'-'; 64];
            for i in (0..64).step_by(3) {
                alt[i] = b;
            }
            blocks.push(alt);
        }
        for hay in adversarial_haystacks() {
            for chunk in hay.chunks(64) {
                let mut block = [0u8; 64];
                block[..chunk.len()].copy_from_slice(chunk);
                blocks.push(block);
            }
        }
        // The letter-range edges (`@` `[` `` ` `` `{`) and DEL/0x80/0xFF
        // beside letters, as a zero-padded tail block.
        let lit: &[u8] = b"Caf\xc3\xa9 AMAZING@[`{z 0x41 \xe2\x80\x94 ok. _Zz{@A'a\x7f\x80\xff!!";
        let mut text = [0u8; 64];
        text[..lit.len()].copy_from_slice(lit);
        blocks.push(text);
        // The phone-start and ISBN-marker bytes at block and lane edges,
        // beside the digit-range edges `/` and `:`, and before the bytes
        // one above them (`)` `,` `c` `C`), where a borrowing zero-lane
        // test would report a false match.
        let lit: &[u8] = b"(+bB/0:9 iSbN(415) +1 ISBN\xc3\xa9b9B(a+\x80(\xff+ Bb)*,;A()+,bcBC";
        let mut text = [b'b'; 64];
        text[64 - lit.len()..].copy_from_slice(lit);
        blocks.push(text);
        for shift in [0, 7, 8, 15, 16, 62, 63] {
            let mut block = [b'.'; 64];
            for (i, &c) in b"(+0b9B".iter().enumerate() {
                block[(shift + 11 * i) % 64] = c;
            }
            blocks.push(block);
        }
        blocks
    }

    #[test]
    fn letter_mask64_matches_reference() {
        for block in &adversarial_blocks() {
            let want = ref_letter_mask(block);
            assert_eq!(letter_mask64(block), want, "block {block:?}");
            assert_eq!(letter_mask64_swar(block), want, "swar block {block:?}");
        }
    }

    fn ref_classes(block: &[u8; 64]) -> Classes64 {
        let mask = |f: fn(u8) -> bool| {
            block
                .iter()
                .enumerate()
                .filter(|(_, &b)| f(b))
                .fold(0, |m, (i, _)| m | 1 << i)
        };
        Classes64 {
            letters: ref_letter_mask(block),
            digits: mask(|b| b.is_ascii_digit()),
            paren_plus: mask(|b| b == b'(' || b == b'+'),
            b: mask(|b| b == b'b' || b == b'B'),
        }
    }

    #[test]
    fn classes64_matches_reference() {
        for block in &adversarial_blocks() {
            let want = ref_classes(block);
            assert_eq!(classes64(block), want, "block {block:?}");
            assert_eq!(classes64_swar(block), want, "swar block {block:?}");
            assert_eq!(want.letters, letter_mask64(block));
        }
    }

    #[test]
    fn blocks64_pads_the_tail_block_with_zeros() {
        for hay in adversarial_haystacks() {
            let got: Vec<Classes64> = blocks64(&hay, classes64).collect();
            assert_eq!(got.len(), hay.len().div_ceil(64));
            for (chunk, c) in hay.chunks(64).zip(&got) {
                let mut block = [0u8; 64];
                block[..chunk.len()].copy_from_slice(chunk);
                assert_eq!(*c, ref_classes(&block));
                // No class marks a lane past the end of the slice.
                let live = u64::MAX >> (64 - chunk.len());
                assert_eq!((c.letters | c.digits | c.paren_plus | c.b) & !live, 0);
            }
        }
    }

    #[test]
    fn high_byte_classes_land_on_leading_bytes() {
        // A class that includes the non-ASCII range finds the *leading*
        // byte of a multibyte char when scanning from a boundary.
        static NON_ASCII: ByteTable = ByteTable::new(&[]).with_range(0x80, 0xFF);
        let s = "ab\u{e9}cd\u{1F600}e"; // é = 2 bytes, emoji = 4 bytes
        let bytes = s.as_bytes();
        let first = NON_ASCII.find_in(bytes, 0).expect("é present");
        assert!(s.is_char_boundary(first));
        let second = NON_ASCII
            .find_in(bytes, first + 2) // skip é wholly
            .expect("emoji present");
        assert!(s.is_char_boundary(second));
    }
}
