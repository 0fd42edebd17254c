//! Binary wire primitives shared by the write-ahead log and the store
//! snapshot.
//!
//! The offline `serde` shim is marker-only (see `shims/serde`), so the
//! durable formats are hand-framed: little-endian fixed-width integers,
//! `f64` as IEEE-754 bit patterns (bit-exact round-trip, NaN included),
//! and length-prefixed UTF-8 strings. When the real `serde` + `bincode`
//! come back (ROADMAP "Real dependency swap"), this module shrinks to a
//! codec adapter while the frame/checksum layout of [`crate::wal`] stays.

use perfdata::RegionKind;
use std::fmt;

/// A decoding failure. Every variant names what the reader expected, so a
/// corrupt frame produces an actionable skip report instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended inside a value.
    UnexpectedEof {
        /// What was being read.
        what: &'static str,
    },
    /// A version byte this build does not understand.
    UnsupportedVersion(u8),
    /// An unknown enum discriminant.
    BadEnum {
        /// Which enumeration.
        what: &'static str,
        /// The offending code.
        code: u8,
    },
    /// A string payload was not valid UTF-8.
    BadUtf8 {
        /// Which string.
        what: &'static str,
    },
    /// Decoding finished with bytes left over (framing drift).
    TrailingBytes {
        /// How many bytes remained.
        remaining: usize,
    },
    /// A section held more bytes than its declared count of items used:
    /// the count disagrees with what is present.
    CountMismatch {
        /// Which section.
        what: &'static str,
        /// Bytes left after the last declared item.
        remaining: usize,
    },
    /// An index into a batch frame's name or run table points past it.
    BadIndex {
        /// Which field held the index.
        what: &'static str,
        /// The index read.
        index: u32,
        /// Entries in the table.
        len: u32,
    },
    /// A variable-length integer ran past 32 bits.
    BadVarint {
        /// What was being read.
        what: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { what } => write!(f, "unexpected end of input in {what}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadEnum { what, code } => write!(f, "invalid {what} code {code}"),
            WireError::BadUtf8 { what } => write!(f, "{what} is not valid UTF-8"),
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after value")
            }
            WireError::CountMismatch { what, remaining } => {
                write!(f, "{remaining} bytes of {what} past its declared count")
            }
            WireError::BadIndex { what, index, len } => {
                write!(f, "{what} {index} is out of range of a table of {len}")
            }
            WireError::BadVarint { what } => write!(f, "{what} overflows 32 bits"),
        }
    }
}

impl std::error::Error for WireError {}

// ------------------------------------------------------------ writing ----

/// Append a `u8`.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Append a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `i64`.
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its IEEE-754 bit pattern (bit-exact round-trip).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Append `v` as a LEB128 variable-length integer: seven bits a byte,
/// low bits first, the high bit set on every byte but the last (one byte
/// below 128, at most five).
pub fn put_varint(buf: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Append a length-prefixed UTF-8 string.
///
/// The prefix is a `u32`: a string of 4 GiB or more cannot be framed (the
/// truncated prefix would desynchronize every later field), so it is
/// rejected loudly here instead of producing a corrupt encoding.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    assert!(
        u32::try_from(s.len()).is_ok(),
        "string of {} bytes exceeds the u32 length prefix",
        s.len()
    );
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Append one frame, `len u32 | crc32 u32 | payload`, whose payload
/// `encode` appends in place ([`begin_frame`], then [`end_frame`]) —
/// `kojak-net`'s frames other than event batches.
pub fn put_frame(buf: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let header = begin_frame(buf);
    encode(buf);
    end_frame(buf, header);
}

/// Reserve a frame header at the end of `buf` and return its offset: the
/// payload is appended after it, and [`end_frame`] back-patches the
/// header once the payload's extent is known. The writers of batch frames
/// ([`crate::batch::BatchEncoder`]) and of [`put_frame`] go through these
/// two, so every frame is checksummed exactly once, where it is written.
pub fn begin_frame(buf: &mut Vec<u8>) -> usize {
    let header = buf.len();
    buf.resize(header + FRAME_HEADER_LEN, 0);
    header
}

/// Patch the frame header at `header` with the length and [`crc32`] of
/// everything appended after it.
pub fn end_frame(buf: &mut [u8], header: usize) {
    let body = header + FRAME_HEADER_LEN;
    let len = (buf.len() - body) as u32;
    let crc = crc32(&buf[body..]);
    buf[header..header + 4].copy_from_slice(&len.to_le_bytes());
    buf[header + 4..body].copy_from_slice(&crc.to_le_bytes());
}

/// Byte length of a frame header, `len u32 | crc32 u32`.
pub const FRAME_HEADER_LEN: usize = 8;

/// Stable one-byte code of a [`RegionKind`] (wire + snapshot format).
pub fn region_kind_code(kind: RegionKind) -> u8 {
    match kind {
        RegionKind::Subprogram => 0,
        RegionKind::Loop => 1,
        RegionKind::IfBlock => 2,
        RegionKind::CallSite => 3,
        RegionKind::BasicBlock => 4,
    }
}

/// Inverse of [`region_kind_code`].
pub fn region_kind_from_code(code: u8) -> Option<RegionKind> {
    Some(match code {
        0 => RegionKind::Subprogram,
        1 => RegionKind::Loop,
        2 => RegionKind::IfBlock,
        3 => RegionKind::CallSite,
        4 => RegionKind::BasicBlock,
        _ => return None,
    })
}

// ------------------------------------------------------------ reading ----

/// A bounds-checked cursor over an encoded payload.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless the payload was fully consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            remaining => Err(WireError::TrailingBytes { remaining }),
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn get_i64(&mut self, what: &'static str) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Read an `f64` bit pattern.
    pub fn get_f64(&mut self, what: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64(what)?))
    }

    /// Read a LEB128 integer written by [`put_varint`]. More than five
    /// bytes, or a fifth byte carrying bits past 32, is a typed
    /// [`WireError::BadVarint`].
    pub fn get_varint(&mut self, what: &'static str) -> Result<u32, WireError> {
        let first = self.get_u8(what)?;
        if first < 0x80 {
            return Ok(u32::from(first));
        }
        let mut v = u32::from(first & 0x7f);
        for shift in [7, 14, 21, 28] {
            let b = self.get_u8(what)?;
            if shift == 28 && b > 0x0f {
                return Err(WireError::BadVarint { what });
            }
            v |= u32::from(b & 0x7f) << shift;
            if b < 0x80 {
                return Ok(v);
            }
        }
        Err(WireError::BadVarint { what })
    }

    /// Read `n` raw bytes (a nested length-prefixed payload, e.g. one
    /// wire-encoded event inside a network frame). Bounds-checked like
    /// every other read: a declared length exceeding the remaining buffer
    /// is a typed [`WireError::UnexpectedEof`], never an over-read.
    pub fn get_bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        self.take(n, what)
    }

    /// Read a length-prefixed UTF-8 string into a new `String`.
    pub fn get_str(&mut self, what: &'static str) -> Result<String, WireError> {
        self.get_str_ref(what).map(str::to_owned)
    }

    /// Read a length-prefixed UTF-8 string, borrowed from the buffer: the
    /// UTF-8 check of [`Reader::get_str`] without its allocation, for a
    /// decoder that copies into a `String` it already owns.
    pub fn get_str_ref(&mut self, what: &'static str) -> Result<&'a str, WireError> {
        let len = self.get_u32(what)? as usize;
        let bytes = self.take(len, what)?;
        std::str::from_utf8(bytes).map_err(|_| WireError::BadUtf8 { what })
    }
}

// ----------------------------------------------------------- checksum ----

/// CRC-32 (IEEE 802.3, reflected) slicing-by-16 tables, built at compile
/// time. Table 0 is the classic bytewise table; `CRC_TABLES[k][b]` is the
/// CRC register after byte `b` is followed by `k` zero bytes, so sixteen
/// lookups advance the register over sixteen input bytes at once.
static CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes` — the one checksum of every durable and wire
/// format: each WAL frame ([`crate::wal`]), each `kojak-net` frame, and
/// the whole snapshot payload ([`crate::snapshot`]). Slicing-by-16 with a
/// bytewise tail; the value is the standard CRC-32 for every input, so
/// every log, snapshot and peer written by earlier builds still verifies.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xffff_ffffu32;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let w = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(w & 0xff) as usize]
            ^ t[14][((w >> 8) & 0xff) as usize]
            ^ t[13][((w >> 16) & 0xff) as usize]
            ^ t[12][(w >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, u64::MAX - 1);
        put_i64(&mut buf, -42);
        put_f64(&mut buf, f64::NAN);
        put_f64(&mut buf, -0.0);
        put_str(&mut buf, "solver:loop@12");
        put_str(&mut buf, "");
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_u8("a").unwrap(), 7);
        assert_eq!(r.get_u32("b").unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(r.get_i64("d").unwrap(), -42);
        assert!(r.get_f64("e").unwrap().is_nan());
        assert_eq!(r.get_f64("f").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_str("g").unwrap(), "solver:loop@12");
        assert_eq!(r.get_str("h").unwrap(), "");
        r.finish().unwrap();
    }

    #[test]
    fn varints_roundtrip_at_every_width_and_overflow_is_typed() {
        for v in [
            0,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            1 << 21,
            (1 << 28) - 1,
            1 << 28,
            u32::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.get_varint("v").unwrap(), v);
            r.finish().unwrap();
            assert!(matches!(
                Reader::new(&buf[..buf.len() - 1]).get_varint("v"),
                Err(WireError::UnexpectedEof { what: "v" })
            ));
        }
        for bytes in [
            &[0xff, 0xff, 0xff, 0xff, 0x10][..],
            &[0x80, 0x80, 0x80, 0x80, 0x80, 0],
        ] {
            assert_eq!(
                Reader::new(bytes).get_varint("v"),
                Err(WireError::BadVarint { what: "v" })
            );
        }
    }

    #[test]
    fn truncation_and_trailing_are_typed() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 9);
        let mut r = Reader::new(&buf[..5]);
        assert!(matches!(
            r.get_u64("x"),
            Err(WireError::UnexpectedEof { what: "x" })
        ));
        let mut r = Reader::new(&buf);
        r.get_u32("half").unwrap();
        assert_eq!(r.finish(), Err(WireError::TrailingBytes { remaining: 4 }));
    }

    #[test]
    fn bad_utf8_is_typed() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_str("s"), Err(WireError::BadUtf8 { what: "s" }));
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_str_ref("s"), Err(WireError::BadUtf8 { what: "s" }));
    }

    #[test]
    fn region_kind_codes_roundtrip() {
        for kind in [
            RegionKind::Subprogram,
            RegionKind::Loop,
            RegionKind::IfBlock,
            RegionKind::CallSite,
            RegionKind::BasicBlock,
        ] {
            assert_eq!(region_kind_from_code(region_kind_code(kind)), Some(kind));
        }
        assert_eq!(region_kind_from_code(5), None);
    }

    /// Bit-at-a-time CRC-32 (IEEE, reflected), no table: the independent
    /// reference the sliced kernel is checked against.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Published CRC-32 check values (as `zlib.crc32` gives them).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
        assert_eq!(crc32(&[0x00; 32]), 0x190a_55ad);
        assert_eq!(crc32(&[0xff; 32]), 0xff6c_ab0b);
        for (input, want) in [
            (&b"123456789"[..], 0xcbf4_3926),
            (&[0x00; 32][..], 0x190a_55ad),
        ] {
            assert_eq!(crc32_bitwise(input), want, "the reference itself");
        }
    }

    #[test]
    fn crc32_matches_the_bitwise_reference_at_every_length_and_offset() {
        // Every length 0..=1024 at every start offset 0..16: each split of
        // an input into 16-byte blocks and a tail, and every alignment.
        let data: Vec<u8> = (0..1024 + 16u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for offset in 0..16 {
            for len in 0..=1024 {
                let input = &data[offset..offset + len];
                assert_eq!(
                    crc32(input),
                    crc32_bitwise(input),
                    "offset {offset}, length {len}"
                );
            }
        }
    }
}
