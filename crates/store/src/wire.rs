//! Little-endian wire primitives — the workspace's single binary-encoding
//! implementation.
//!
//! The store's page encodings, the runner's config fingerprint and its
//! checkpoint sidecar checksums all share one bounds-checked [`Reader`],
//! one set of `put_*` writers, one FNV-1a and one varint.
//!
//! Two properties every consumer relies on:
//!
//! * **exact float transport** — `f64` values travel as their IEEE-754 bit
//!   patterns ([`put_f64`] / [`Reader::f64`]), so NaN payloads, infinities
//!   and `-0.0` round-trip bit-for-bit, never through text formatting;
//! * **panic-free decoding** — every read is bounds-checked and surfaces a
//!   [`CodecError`] on torn or corrupt input.

/// Why a byte buffer failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the field named here was complete.
    Truncated(&'static str),
    /// The buffer does not start with the expected magic.
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion(u16),
    /// A decoded discriminant or length was out of range.
    InvalidValue { what: &'static str, value: u64 },
    /// Bytes were left over after the last declared row.
    TrailingBytes(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated(what) => write!(f, "truncated input at {what}"),
            CodecError::BadMagic => write!(f, "bad magic"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::InvalidValue { what, value } => {
                write!(f, "invalid {what} value {value}")
            }
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after last row"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A bounds-checked cursor over an input buffer.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes `n` raw bytes.
    pub fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.bytes(1, what)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, CodecError> {
        let b = self.bytes(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        let b = self.bytes(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let b = self.bytes(8, what)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self, what: &'static str) -> Result<i64, CodecError> {
        Ok(self.u64(what)? as i64)
    }

    /// Reads an `f64` as its exact bit pattern.
    pub fn f64(&mut self, what: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &'static str) -> Result<String, CodecError> {
        let len = self.u32(what)? as usize;
        let bytes = self.bytes(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CodecError::InvalidValue { what, value: len as u64 })
    }

    /// Reads an LEB128 unsigned varint (at most 10 bytes for a `u64`).
    pub fn uvarint(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.u8(what)?;
            let low = (b & 0x7f) as u64;
            if shift >= 64 || (shift == 63 && low > 1) {
                return Err(CodecError::InvalidValue { what, value: low });
            }
            v |= low << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads a zigzag-encoded signed varint.
    pub fn ivarint(&mut self, what: &'static str) -> Result<i64, CodecError> {
        Ok(unzigzag(self.uvarint(what)?))
    }
}

/// Appends a little-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `i64`.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    put_u64(out, v as u64);
}

/// Appends an `f64` as its exact bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Appends an LEB128 unsigned varint.
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a zigzag-encoded signed varint.
pub fn put_ivarint(out: &mut Vec<u8>, v: i64) {
    put_uvarint(out, zigzag(v));
}

/// Encoded byte length of an unsigned varint.
pub fn uvarint_len(v: u64) -> usize {
    match v {
        0 => 1,
        _ => (70 - v.leading_zeros() as usize) / 7,
    }
}

/// Zigzag maps signed to unsigned so small-magnitude deltas of either sign
/// encode short: 0→0, -1→1, 1→2, -2→3, …
pub fn zigzag(v: i64) -> u64 {
    ((v as u64) << 1) ^ ((v >> 63) as u64)
}

/// Inverse of [`zigzag`].
pub fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// FNV-1a over a byte buffer — the workspace's checksum for checkpoint
/// and store payloads.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET_BASIS, bytes)
}

/// FNV-1a initial state, for streaming use with [`fnv1a64_extend`].
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds more bytes into a running FNV-1a state.
pub fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uvarint_roundtrips_boundaries() {
        let cases = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            (1 << 63) - 1,
            1 << 63,
            u64::MAX,
        ];
        for v in cases {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            assert_eq!(buf.len(), uvarint_len(v), "length fn disagrees for {v}");
            let mut r = Reader::new(&buf);
            assert_eq!(r.uvarint("v").expect("decodes"), v);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn uvarint_rejects_overlong_and_truncated() {
        // 11 continuation bytes would shift past 64 bits.
        let overlong = [0xffu8; 11];
        assert!(matches!(
            Reader::new(&overlong).uvarint("v"),
            Err(CodecError::InvalidValue { .. })
        ));
        // A continuation bit with nothing after it is a truncation.
        assert_eq!(Reader::new(&[0x80]).uvarint("v"), Err(CodecError::Truncated("v")));
    }

    #[test]
    fn zigzag_roundtrips_extremes() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, i64::MIN + 1] {
            assert_eq!(unzigzag(zigzag(v)), v, "zigzag broke {v}");
            let mut buf = Vec::new();
            put_ivarint(&mut buf, v);
            assert_eq!(Reader::new(&buf).ivarint("v"), Ok(v));
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn streaming_fnv_matches_one_shot() {
        let data = b"the quick brown fox";
        let mut h = FNV_OFFSET_BASIS;
        for chunk in data.chunks(3) {
            h = fnv1a64_extend(h, chunk);
        }
        assert_eq!(h, fnv1a64(data));
    }

    #[test]
    fn f64_bits_roundtrip_exactly() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 1.5e-300] {
            let mut buf = Vec::new();
            put_f64(&mut buf, v);
            let back = Reader::new(&buf).f64("v").expect("decodes");
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }
}
