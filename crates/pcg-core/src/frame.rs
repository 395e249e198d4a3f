//! Length-prefixed, CRC-checked binary frames — the journal v3 codec.
//!
//! The write-ahead journal's v1/v2 formats were JSONL: one
//! `serde_json` line per completed cell. At service scale (millions of
//! cells, every submission journaled) parsing JSON per line dominates
//! replay, merge, and compaction. v3 frames carry an opaque binary
//! payload behind a fixed 16-byte header, so a reader can skip, verify,
//! and slice entries without touching a JSON parser.
//!
//! ## Frame layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       4     len   — payload length in bytes (u32)
//! 4       8     cell  — cell address tag (u64; 0 for the header frame)
//! 12      4     crc   — CRC-32 (IEEE) over cell bytes ++ payload
//! 16      len   payload
//! ```
//!
//! The CRC covers the cell tag *and* the payload, so a bit flip in
//! either is caught directly; a flip in `len` or `crc` desynchronizes
//! the check itself and is caught the same way (the probability of a
//! random corruption passing is 2⁻³²). A flip in `len` that points the
//! reader past the end of the buffer is reported as a torn tail — the
//! same classification a crash mid-append produces — because the two
//! are indistinguishable from the bytes alone and both truncate replay.
//!
//! Decoding never allocates: a [`Frame`] borrows its payload from the
//! input buffer, which the journal reads in one buffered `fs::read`.
//!
//! This module lives in `pcg-core` next to `plan.rs`'s FNV-1a for the
//! same reason cell addressing does: every process that touches a
//! journal (workers, merge, benches, fuzzers) must agree on the exact
//! byte contract.

/// File magic for a v3 journal. A file that does not start with these
/// 8 bytes is not a v3 journal, and the harness replays nothing from
/// it.
pub const JOURNAL_MAGIC: [u8; 8] = *b"PCGJRNL3";

/// Fixed bytes before each frame's payload: `len (4) + cell (8) + crc (4)`.
pub const FRAME_OVERHEAD: usize = 16;

/// Payload magic for a **claim frame** — the second frame kind, used by
/// live work stealing between shard workers. A thief appends a claim
/// frame (cell tag = the claimed cell, payload = this magic + its own
/// shard index) to its *own* journal **before** evaluating a stolen
/// cell, so a crash after the claim loses at most duplicated work,
/// never the cell: merge gap-fill re-evaluates anything claimed but
/// never journaled.
///
/// The discriminator is the payload prefix rather than a new header
/// field so the frame layout above is unchanged and old readers fail
/// safe: an entry payload starts with a `u32` model-name length, and
/// these eight bytes read as a length of ~1.1 billion, which the
/// bounded entry decoder rejects — a claim can never be mistaken for a
/// result.
pub const CLAIM_MAGIC: [u8; 8] = *b"PCGCLAIM";

/// Encode a claim-frame payload: [`CLAIM_MAGIC`] followed by the
/// thief's shard index (little-endian `u32`). The claimed cell rides
/// in the frame's cell tag, covered by the frame CRC.
pub fn encode_claim_payload(thief_index: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(12);
    out.extend_from_slice(&CLAIM_MAGIC);
    out.extend_from_slice(&thief_index.to_le_bytes());
    out
}

/// Decode a claim-frame payload, returning the thief's shard index.
/// `None` means the payload is not a claim (no magic prefix) or is
/// malformed (wrong length / trailing bytes) — callers treat malformed
/// claims like any other undecodable payload.
pub fn decode_claim_payload(payload: &[u8]) -> Option<u32> {
    if payload.len() != CLAIM_MAGIC.len() + 4 || payload[..8] != CLAIM_MAGIC {
        return None;
    }
    Some(u32::from_le_bytes(payload[8..12].try_into().unwrap()))
}

/// Whether a verified frame payload is a claim frame. The cheap
/// prefix test readers use to branch before attempting entry decode.
pub fn is_claim_payload(payload: &[u8]) -> bool {
    payload.len() >= CLAIM_MAGIC.len() && payload[..CLAIM_MAGIC.len()] == CLAIM_MAGIC
}

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320` reflected) lookup table,
/// built at first use.
fn crc_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        table
    })
}

/// Fold `bytes` into a running CRC-32 accumulator (start from
/// [`crc32_start`], finish with [`crc32_finish`]). Chaining is
/// concatenation, like [`crate::plan::fnv1a_extend`].
pub fn crc32_extend(mut crc: u32, bytes: &[u8]) -> u32 {
    let table = crc_table();
    for &b in bytes {
        crc = table[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// The CRC-32 pre-inversion seed.
pub fn crc32_start() -> u32 {
    0xFFFF_FFFF
}

/// Finalize a CRC-32 accumulator.
pub fn crc32_finish(crc: u32) -> u32 {
    !crc
}

/// CRC-32 (IEEE) of one byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_finish(crc32_extend(crc32_start(), bytes))
}

/// One decoded frame, borrowing its payload from the input buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The cell address tag (0 for the header frame).
    pub cell: u64,
    /// The verified payload bytes.
    pub payload: &'a [u8],
    /// Byte offset one past this frame (where the next frame starts).
    pub end: usize,
}

/// Why a frame failed to decode. Both variants truncate replay at the
/// frame's start offset; the distinction is diagnostic (a torn tail is
/// the expected state after a crash mid-append, a CRC mismatch means
/// the bytes were altered in place).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the frame's declared extent: either a
    /// crash mid-append or a corrupted length prefix pointing past the
    /// end — indistinguishable, and both handled by truncation.
    TornTail {
        /// Byte offset of the frame's start.
        offset: usize,
        /// Bytes available from `offset`.
        have: usize,
        /// Bytes the header (or its length field) demanded.
        need: usize,
    },
    /// The stored CRC disagrees with the CRC computed over the cell
    /// tag and payload.
    BadCrc {
        /// Byte offset of the frame's start.
        offset: usize,
        /// The cell tag as stored (untrusted).
        cell: u64,
        /// The CRC as stored.
        stored: u32,
        /// The CRC computed from the bytes.
        computed: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TornTail { offset, have, need } => write!(
                f,
                "torn tail at byte offset {offset}: frame needs {need} bytes, {have} remain"
            ),
            FrameError::BadCrc { offset, cell, stored, computed } => write!(
                f,
                "CRC mismatch at byte offset {offset} (cell {cell:016x}): stored {stored:08x}, computed {computed:08x}"
            ),
        }
    }
}

/// Append one encoded frame for `(cell, payload)` to `out`.
pub fn encode_frame_into(out: &mut Vec<u8>, cell: u64, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("frame payload must fit in u32");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&cell.to_le_bytes());
    let crc = crc32_finish(crc32_extend(
        crc32_extend(crc32_start(), &cell.to_le_bytes()),
        payload,
    ));
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(payload);
}

/// Encode one frame for `(cell, payload)`.
pub fn encode_frame(cell: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    encode_frame_into(&mut out, cell, payload);
    out
}

/// Decode the frame starting at `offset` in `buf`.
///
/// Returns `None` on a clean end of input (`offset == buf.len()`),
/// `Some(Ok)` for a verified frame, `Some(Err)` for a torn or corrupt
/// one. Trailing bytes that cannot hold a header are a torn tail, not
/// a clean end — a crashed writer can stop mid-header.
pub fn decode_frame(buf: &[u8], offset: usize) -> Option<Result<Frame<'_>, FrameError>> {
    let remaining = buf.len().checked_sub(offset)?;
    if remaining == 0 {
        return None;
    }
    if remaining < FRAME_OVERHEAD {
        return Some(Err(FrameError::TornTail { offset, have: remaining, need: FRAME_OVERHEAD }));
    }
    let len = u32::from_le_bytes(buf[offset..offset + 4].try_into().unwrap()) as usize;
    let cell = u64::from_le_bytes(buf[offset + 4..offset + 12].try_into().unwrap());
    let stored = u32::from_le_bytes(buf[offset + 12..offset + 16].try_into().unwrap());
    let need = FRAME_OVERHEAD
        .checked_add(len)
        .ok_or(())
        .unwrap_or(usize::MAX);
    if remaining < need {
        return Some(Err(FrameError::TornTail { offset, have: remaining, need }));
    }
    let payload = &buf[offset + FRAME_OVERHEAD..offset + FRAME_OVERHEAD + len];
    let computed = crc32_finish(crc32_extend(
        crc32_extend(crc32_start(), &cell.to_le_bytes()),
        payload,
    ));
    if computed != stored {
        return Some(Err(FrameError::BadCrc { offset, cell, stored, computed }));
    }
    Some(Ok(Frame { cell, payload, end: offset + FRAME_OVERHEAD + len }))
}

// ---------------------------------------------------------------------
// Payload byte codec helpers
// ---------------------------------------------------------------------

/// Little-endian byte writer for frame payloads. Fixed-width integers,
/// `f64` as raw IEEE-754 bits (exact round trip — the byte journal
/// preserves every float bit-for-bit, so a JSON export after a binary
/// round trip prints the identical shortest-roundtrip string), strings
/// and sequences length-prefixed with `u32`.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Fresh empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append one bool as a byte (`0`/`1`).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Append one `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append one `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append one `f64` as its raw bits, little-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length (`u32`) for a prefixed sequence.
    pub fn put_len(&mut self, n: usize) {
        self.put_u32(u32::try_from(n).expect("sequence length must fit in u32"));
    }

    /// Append a `u32`-length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Payload decoding failure: what was expected, at which payload byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset within the payload where decoding failed.
    pub at: usize,
    /// What the decoder was trying to read.
    pub what: &'static str,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "payload truncated or malformed at byte {}: expected {}", self.at, self.what)
    }
}

/// Little-endian byte reader matching [`ByteWriter`]. Every read is
/// bounds-checked and returns a [`CodecError`] instead of panicking —
/// a CRC-valid frame whose payload does not decode is still corruption
/// (it can only happen across an incompatible codec change) and must be
/// rejected loudly, never trusted.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from `buf`, starting at byte 0.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(CodecError { at: self.pos, what }),
        }
    }

    /// Read one `u8`.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read one bool (any nonzero byte is an error — a flipped flag
    /// byte must not decode as `true`).
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.take(1, "bool")?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError { at: self.pos - 1, what: "bool (0 or 1)" }),
        }
    }

    /// Read one `u32`, little-endian.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().unwrap()))
    }

    /// Read one `u64`, little-endian.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().unwrap()))
    }

    /// Read one `f64` from its raw bits.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a sequence length, bounded by the bytes that could actually
    /// follow (`min_elem_bytes` per element) so a corrupt length cannot
    /// drive a huge allocation.
    pub fn len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(min_elem_bytes.max(1)) > remaining {
            return Err(CodecError { at: self.pos - 4, what: "plausible sequence length" });
        }
        Ok(n)
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let n = self.len(1)?;
        let at = self.pos;
        std::str::from_utf8(self.take(n, "string bytes")?)
            .map_err(|_| CodecError { at, what: "UTF-8 string" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vectors() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Chaining is concatenation.
        let chained =
            crc32_finish(crc32_extend(crc32_extend(crc32_start(), b"1234"), b"56789"));
        assert_eq!(chained, 0xCBF4_3926);
    }

    #[test]
    fn frame_roundtrips() {
        let mut buf = Vec::new();
        encode_frame_into(&mut buf, 7, b"hello");
        encode_frame_into(&mut buf, u64::MAX, b"");
        encode_frame_into(&mut buf, 0, &[0xFF; 300]);

        let f1 = decode_frame(&buf, 0).unwrap().unwrap();
        assert_eq!((f1.cell, f1.payload), (7, &b"hello"[..]));
        let f2 = decode_frame(&buf, f1.end).unwrap().unwrap();
        assert_eq!((f2.cell, f2.payload.len()), (u64::MAX, 0));
        let f3 = decode_frame(&buf, f2.end).unwrap().unwrap();
        assert_eq!((f3.cell, f3.payload), (0, &[0xFF; 300][..]));
        assert!(decode_frame(&buf, f3.end).is_none(), "clean EOF");
    }

    #[test]
    fn torn_tails_are_classified_not_misread() {
        let buf = encode_frame(42, b"payload bytes");
        // Every proper prefix of a frame is a torn tail.
        for cut in 1..buf.len() {
            match decode_frame(&buf[..cut], 0) {
                Some(Err(FrameError::TornTail { offset: 0, .. })) => {}
                other => panic!("prefix of {cut} bytes decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flips_are_caught() {
        let buf = encode_frame(42, b"some payload worth protecting");
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut corrupt = buf.clone();
                corrupt[byte] ^= 1 << bit;
                match decode_frame(&corrupt, 0) {
                    Some(Err(_)) => {}
                    Some(Ok(f)) => panic!(
                        "flip at byte {byte} bit {bit} decoded as cell {} payload {:?}",
                        f.cell, f.payload
                    ),
                    None => panic!("flip at byte {byte} bit {bit} read as clean EOF"),
                }
            }
        }
    }

    #[test]
    fn oversized_length_is_a_torn_tail() {
        let mut buf = encode_frame(1, b"x");
        // Claim a payload far past the end of the buffer.
        buf[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        match decode_frame(&buf, 0) {
            Some(Err(FrameError::TornTail { .. })) => {}
            other => panic!("oversized length decoded as {other:?}"),
        }
    }

    #[test]
    fn claim_payloads_roundtrip_and_discriminate() {
        let p = encode_claim_payload(2);
        assert!(is_claim_payload(&p));
        assert_eq!(decode_claim_payload(&p), Some(2));
        assert_eq!(decode_claim_payload(&encode_claim_payload(u32::MAX)), Some(u32::MAX));

        // A claim frame survives the frame codec like any other frame.
        let framed = encode_frame(0xDEAD_BEEF, &p);
        let f = decode_frame(&framed, 0).unwrap().unwrap();
        assert_eq!(f.cell, 0xDEAD_BEEF);
        assert_eq!(decode_claim_payload(f.payload), Some(2));

        // Not claims: empty, truncated, trailing junk, wrong magic.
        assert_eq!(decode_claim_payload(b""), None);
        assert_eq!(decode_claim_payload(&p[..11]), None);
        let mut long = p.clone();
        long.push(0);
        assert_eq!(decode_claim_payload(&long), None);
        let mut wrong = p.clone();
        wrong[0] ^= 1;
        assert_eq!(decode_claim_payload(&wrong), None);
        assert!(!is_claim_payload(&wrong));

        // An entry-shaped payload (u32 length prefix of a short name)
        // never looks like a claim: the magic's first byte is 'P', so
        // a name length would have to be >= 0x50 Pa... — byte-compare
        // is exact, not heuristic.
        let mut w = ByteWriter::new();
        w.put_str("gpt-4");
        assert!(!is_claim_payload(&w.into_bytes()));
    }

    #[test]
    fn byte_codec_roundtrips() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_bool(false);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-0.1);
        w.put_f64(f64::NEG_INFINITY);
        w.put_str("modèle");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.1f64).to_bits());
        assert_eq!(r.f64().unwrap(), f64::NEG_INFINITY);
        assert_eq!(r.str().unwrap(), "modèle");
        assert!(r.is_exhausted());
    }

    #[test]
    fn byte_reader_rejects_truncation_and_junk() {
        let mut w = ByteWriter::new();
        w.put_str("abc");
        let bytes = w.into_bytes();
        // Truncated string body.
        let mut r = ByteReader::new(&bytes[..5]);
        assert!(r.str().is_err());
        // Non-0/1 bool byte.
        let mut r = ByteReader::new(&[2]);
        assert!(r.bool().is_err());
        // Implausible sequence length cannot demand a huge allocation.
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.len(8).is_err());
    }
}
