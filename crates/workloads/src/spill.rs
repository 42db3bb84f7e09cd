//! File-backed record spills: the real I/O behind the live runtime's
//! Terasort stages.
//!
//! The simulator *models* disk traffic; the live runtime must actually
//! block on it, so its map stage writes generated records to spill files
//! and its sort stage reads them back — through these helpers, which fix
//! the on-disk format (records packed back to back, 100 bytes each,
//! followed by an 8-byte checksum footer) and reject corrupt files
//! instead of mis-sorting silently. The footer is `[crc32 BE][magic]`
//! where the CRC covers every record byte: truncation, bit rot, and a
//! crash mid-record all surface as [`io::ErrorKind::InvalidData`], which
//! the live runtime treats as a *retryable* task failure (the retry
//! regenerates the partition from its deterministic lineage).

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

use crate::datagen::{TeraRecord, KEY_BYTES, VALUE_BYTES};

/// On-disk size of one record in bytes.
pub const RECORD_BYTES: usize = KEY_BYTES + VALUE_BYTES;

/// On-disk size of the checksum footer: a big-endian IEEE CRC-32 of the
/// record bytes followed by [`SPILL_MAGIC`].
pub const FOOTER_BYTES: usize = 8;

/// Trailing magic marking a complete spill file. A file without it was
/// truncated (or predates the checksummed format) and is rejected.
pub const SPILL_MAGIC: [u8; 4] = *b"SAEs";

/// Records per spill I/O chunk: the whole records that fit in 64 KiB.
///
/// [`write_records`] and [`read_records`] move one chunk per `write_all` /
/// `read_exact` call through a reused buffer, folding the CRC over the
/// chunk at once, so a spill costs one system call per 64 KiB and memory
/// beyond the records themselves stays at one chunk.
const CHUNK_RECORDS: usize = (64 * 1024) / RECORD_BYTES;

/// Bytes in one full spill I/O chunk.
const CHUNK_BYTES: usize = CHUNK_RECORDS * RECORD_BYTES;

/// Slicing-by-16 tables for the IEEE 802.3 CRC-32 (reflected polynomial
/// `0xEDB88320`), built at compile time (the workspace carries no
/// checksum dependency). `CRC32_TABLES[0]` is the classic byte-at-a-time
/// table; `CRC32_TABLES[k][b]` advances the CRC of byte `b` by `k` more
/// zero bytes, so one step folds 16 input bytes with 16 independent
/// lookups.
const CRC32_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][n] = c;
        n += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut n = 0;
        while n < 256 {
            let prev = tables[t - 1][n];
            tables[t][n] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            n += 1;
        }
        t += 1;
    }
    tables
};

/// Incremental IEEE CRC-32 (the zlib/`cksum -o 3` polynomial).
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Self(0xFFFF_FFFF)
    }

    /// Folds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC32_TABLES;
        let mut crc = self.0;
        let mut blocks = bytes.chunks_exact(16);
        for b in &mut blocks {
            let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            crc = t[15][(lo & 0xFF) as usize]
                ^ t[14][((lo >> 8) & 0xFF) as usize]
                ^ t[13][((lo >> 16) & 0xFF) as usize]
                ^ t[12][(lo >> 24) as usize]
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
            crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.0 = crc;
    }

    /// The finished checksum value.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// Writes `records` to `path` (truncating any previous file — a retried
/// attempt must overwrite its predecessor's partial output), appends the
/// checksum footer, and returns the number of bytes written (records plus
/// footer).
pub fn write_records(path: &Path, records: &[TeraRecord]) -> io::Result<u64> {
    let mut out = File::create(path)?;
    let mut crc = Crc32::new();
    let mut buf = Vec::with_capacity(CHUNK_BYTES.min(records.len() * RECORD_BYTES));
    for chunk in records.chunks(CHUNK_RECORDS) {
        buf.clear();
        for r in chunk {
            buf.extend_from_slice(&r.key);
            buf.extend_from_slice(&r.value);
        }
        crc.update(&buf);
        out.write_all(&buf)?;
    }
    let mut footer = [0u8; FOOTER_BYTES];
    footer[..4].copy_from_slice(&crc.finish().to_be_bytes());
    footer[4..].copy_from_slice(&SPILL_MAGIC);
    out.write_all(&footer)?;
    Ok((records.len() * RECORD_BYTES + FOOTER_BYTES) as u64)
}

/// Reads a spill file written by [`write_records`] back into memory,
/// verifying the checksum footer.
///
/// Rejected with [`io::ErrorKind::InvalidData`]:
/// * a file too short for the footer or whose record region is not a
///   multiple of [`RECORD_BYTES`] — a spill interrupted mid-record;
/// * a file without the trailing [`SPILL_MAGIC`] — truncated at a record
///   boundary, which length arithmetic alone cannot catch;
/// * a CRC mismatch — bit rot or an overwrite torn mid-file.
///
/// Callers retry the producing task instead of sorting garbage.
pub fn read_records(path: &Path) -> io::Result<Vec<TeraRecord>> {
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    if len < FOOTER_BYTES as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("spill file {path:?} is too short for a checksum footer ({len} bytes)"),
        ));
    }
    let data_len = len - FOOTER_BYTES as u64;
    if !data_len.is_multiple_of(RECORD_BYTES as u64) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("spill file {path:?} has a trailing partial record ({data_len} data bytes)"),
        ));
    }
    let count = (data_len / RECORD_BYTES as u64) as usize;
    let mut records = Vec::with_capacity(count);
    let mut crc = Crc32::new();
    let mut buf = vec![0u8; CHUNK_BYTES.min(count * RECORD_BYTES)];
    while records.len() < count {
        let chunk = &mut buf[..(count - records.len()).min(CHUNK_RECORDS) * RECORD_BYTES];
        file.read_exact(chunk)?;
        crc.update(chunk);
        records.extend(chunk.chunks_exact(RECORD_BYTES).map(|r| {
            let (key, value) = r.split_at(KEY_BYTES);
            TeraRecord {
                key: key.try_into().expect("KEY_BYTES-long slice"),
                value: value.try_into().expect("VALUE_BYTES-long slice"),
            }
        }));
    }
    let mut footer = [0u8; FOOTER_BYTES];
    file.read_exact(&mut footer)?;
    if footer[4..] != SPILL_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("spill file {path:?} lacks the trailing magic: truncated or pre-checksum"),
        ));
    }
    let stored = u32::from_be_bytes(footer[..4].try_into().expect("4-byte slice"));
    let computed = crc.finish();
    if stored != computed {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "spill file {path:?} failed its checksum: stored {stored:#010x}, \
                 computed {computed:#010x}"
            ),
        ));
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::teragen;
    use proptest::prelude::*;

    /// The byte-at-a-time CRC-32 step the sliced kernel replaced: the
    /// oracle for [`Crc32::update`] on a running (unfinished) value.
    fn reference_update(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc = CRC32_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc
    }

    fn reference_crc32(bytes: &[u8]) -> u32 {
        reference_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
    }

    /// The record-at-a-time writer the chunked one replaced: two writes
    /// and two byte-at-a-time CRC folds per record through an 8 KiB
    /// `BufWriter`.
    fn write_records_per_record(path: &Path, records: &[TeraRecord]) -> io::Result<u64> {
        let mut out = io::BufWriter::new(File::create(path)?);
        let mut crc = 0xFFFF_FFFF;
        for r in records {
            crc = reference_update(crc, &r.key);
            crc = reference_update(crc, &r.value);
            out.write_all(&r.key)?;
            out.write_all(&r.value)?;
        }
        out.write_all(&(crc ^ 0xFFFF_FFFF).to_be_bytes())?;
        out.write_all(&SPILL_MAGIC)?;
        out.flush()?;
        Ok((records.len() * RECORD_BYTES + FOOTER_BYTES) as u64)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The sliced CRC equals the oracle on arbitrary input, however
        /// it is split across `update` calls and wherever the input
        /// starts relative to a 16-byte block.
        #[test]
        fn sliced_crc_matches_the_byte_at_a_time_oracle(
            bytes in prop::collection::vec(any::<u8>(), 0..=4096),
            skip in 0usize..16,
            cuts in prop::collection::vec(any::<usize>(), 0..8),
        ) {
            let data = &bytes[skip.min(bytes.len())..];
            let mut whole = Crc32::new();
            whole.update(data);
            prop_assert_eq!(whole.finish(), reference_crc32(data));

            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut split = Crc32::new();
            let mut at = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                split.update(&data[at..cut]);
                at = cut;
            }
            prop_assert_eq!(split.finish(), reference_crc32(data));
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sae-spill-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn round_trip_preserves_records() {
        let records = teragen(1000, 42);
        let path = temp_path("roundtrip.spill");
        let written = write_records(&path, &records).unwrap();
        assert_eq!(written, (1000 * RECORD_BYTES + FOOTER_BYTES) as u64);
        assert_eq!(read_records(&path).unwrap(), records);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE CRC-32 check value: crc32(b"123456789").
        let mut crc = Crc32::new();
        crc.update(b"123456789");
        assert_eq!(crc.finish(), 0xCBF4_3926);
        assert_eq!(reference_crc32(b"123456789"), 0xCBF4_3926);
        // Long enough to take the 16-byte path as well as the tail.
        let long = b"123456789".repeat(7);
        let mut crc = Crc32::new();
        crc.update(&long);
        assert_eq!(crc.finish(), reference_crc32(&long));
    }

    #[test]
    fn chunk_edges_round_trip_byte_identically() {
        // Empty, one record, exactly one chunk, one chunk + 1 record and a
        // multi-chunk file with a partial tail: the chunked writer's bytes
        // equal the record-at-a-time writer's, and both read back.
        for count in [
            0,
            1,
            CHUNK_RECORDS,
            CHUNK_RECORDS + 1,
            3 * CHUNK_RECORDS - 7,
        ] {
            let records = teragen(count, count as u64);
            let chunked = temp_path(&format!("chunked-{count}.spill"));
            let per_record = temp_path(&format!("per-record-{count}.spill"));
            let written = write_records(&chunked, &records).unwrap();
            assert_eq!(
                written,
                write_records_per_record(&per_record, &records).unwrap()
            );
            let bytes = std::fs::read(&chunked).unwrap();
            assert_eq!(bytes.len() as u64, written);
            assert_eq!(
                bytes,
                std::fs::read(&per_record).unwrap(),
                "{count} records"
            );
            assert_eq!(read_records(&chunked).unwrap(), records);
            assert_eq!(read_records(&per_record).unwrap(), records);
            std::fs::remove_file(&chunked).unwrap();
            std::fs::remove_file(&per_record).unwrap();
        }
    }

    #[test]
    fn flipped_byte_fails_the_checksum() {
        let count = CHUNK_RECORDS + 3;
        let path = temp_path("bitrot.spill");
        write_records(&path, &teragen(count, 5)).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let data_len = count * RECORD_BYTES;
        // Inside the first full chunk, in the last record of the partial
        // second chunk, and in the footer's stored CRC.
        for at in [
            1234,
            data_len - RECORD_BYTES,
            data_len - 1,
            data_len,
            data_len + 3,
        ] {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
            let err = read_records(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "byte {at}");
            assert!(err.to_string().contains("checksum"), "byte {at}: {err}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_at_a_record_boundary_is_caught() {
        // Chop exactly one record off the end: the remaining length still
        // parses as N-1 records plus a would-be footer (record bytes), so
        // only the magic/CRC can catch it.
        let path = temp_path("truncated.spill");
        write_records(&path, &teragen(10, 9)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - RECORD_BYTES]).unwrap();
        let err = read_records(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_spill_round_trips() {
        let path = temp_path("empty.spill");
        write_records(&path, &[]).unwrap();
        assert!(read_records(&path).unwrap().is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rewrite_truncates_previous_attempt() {
        let path = temp_path("rewrite.spill");
        write_records(&path, &teragen(500, 1)).unwrap();
        let second = teragen(20, 2);
        write_records(&path, &second).unwrap();
        assert_eq!(read_records(&path).unwrap(), second);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn partial_record_rejected() {
        let path = temp_path("partial.spill");
        write_records(&path, &teragen(3, 7)).unwrap();
        // Simulate a crash mid-record: chop 10 bytes off the end.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let err = read_records(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_reports_not_found() {
        let err = read_records(Path::new("/nonexistent/sae.spill")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }
}
