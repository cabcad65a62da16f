//! `ndt-store` — on-disk columnar corpus store for the ukraine-ndt
//! reproduction.
//!
//! The paper's analysis is a batch pass over ~850k NDT measurements plus
//! sidecar traceroutes. Reproduced at larger `--scale`, that corpus
//! outgrows RAM long before it outgrows disk, so this crate provides the
//! storage shape the ROADMAP calls for: **write-once shard files** of
//! per-column encoded pages that analysis stages stream back
//! group-by-group instead of materializing `Vec`-backed tables.
//!
//! The crate is deliberately dependency-free and knows nothing about NDT
//! rows — it moves `[ColumnData]` groups in and out of files. The typed
//! row↔column mapping for the corpus schemas lives in
//! `ndt-mlab::columnar`; the runner wires shard writers into corpus
//! generation and streams shards back for `report --from-store`.
//!
//! Layer map:
//!
//! * [`wire`] — little-endian primitives, varints, FNV-1a; the
//!   workspace's single binary-encoding implementation (the runner's
//!   config fingerprint and checkpoint sidecars use it too);
//! * [`page`] — per-column encoded pages: delta+varint for `i64`,
//!   dictionary-or-raw for unsigned integers, raw bit patterns for
//!   `f64` (exact NaN round-trip), each payload FNV-1a checksummed under
//!   a fixed 36-byte header carrying row count, encoding tag and two
//!   statistics words that the writer fills and no reader consults;
//! * [`shard`] — shard files (`Header Group* Footer`), streaming
//!   [`ShardWriter`], structural validation at [`Shard::open`] so
//!   corruption is detected at open, not mid-scan, plus a deep payload
//!   sweep ([`Shard::verify_payloads`]) for resume decisions; all reads
//!   route through an `ndt-vfs` handle ([`Shard::open_with`]) so
//!   storage faults can be injected deterministically under test;
//! * [`scan`] — streaming [`Scan`] iterator that decodes, and so
//!   checksum-verifies, every page of every group;
//! * [`error`] — typed [`StoreError`] / [`PageError`]; nothing in this
//!   crate panics on malformed input.

pub mod error;
pub mod page;
pub mod scan;
pub mod shard;
pub mod wire;

pub use error::{PageError, StoreError};
pub use page::{decode_page, encode_page, ColType, ColumnData, Encoding, PageHeader};
pub use scan::{Batch, Scan, ScanStats};
pub use shard::{
    ColumnSpec, GroupMeta, PageMeta, Schema, Shard, ShardWriter, WriteStats, DEFAULT_GROUP_ROWS,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn test_schema() -> Schema {
        Schema::new(
            "t",
            vec![
                ColumnSpec::new("day", ColType::I64),
                ColumnSpec::new("asn", ColType::U32),
                ColumnSpec::new("fp", ColType::U64),
                ColumnSpec::new("tput", ColType::F64),
            ],
        )
        .expect("schema is valid")
    }

    fn group(day: &[i64], asn: &[u32], fp: &[u64], tput: &[f64]) -> Vec<ColumnData> {
        vec![
            ColumnData::I64(day.to_vec()),
            ColumnData::U32(asn.to_vec()),
            ColumnData::U64(fp.to_vec()),
            ColumnData::F64(tput.to_vec()),
        ]
    }

    fn write_shard(path: &std::path::Path, groups: &[Vec<ColumnData>]) -> WriteStats {
        let file = std::fs::File::create(path).expect("create shard");
        let mut w = ShardWriter::new(std::io::BufWriter::new(file), test_schema())
            .expect("writer starts");
        for g in groups {
            w.write_group(g).expect("group writes");
        }
        let (mut out, stats) = w.finish().expect("finish writes footer");
        out.flush().expect("flush");
        stats
    }

    #[test]
    fn roundtrip_two_groups() {
        let dir = std::env::temp_dir().join("ndt-store-test-roundtrip");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("two.ndts");
        let g1 = group(
            &[0, 0, 1, 2],
            &[13188, 13188, 25229, 13188],
            &[7, 7, 9, 7],
            &[1.5, f64::NAN, -0.0, f64::INFINITY],
        );
        let g2 = group(&[5, 6], &[25229, 25229], &[11, 12], &[0.25, 0.5]);
        let stats = write_shard(&path, &[g1.clone(), g2.clone()]);
        assert_eq!(stats.rows, 6);
        assert_eq!(stats.groups, 2);

        let shard = Shard::open(&path).expect("opens");
        assert_eq!(shard.rows(), 6);
        let batches: Vec<Batch> = Scan::new(&shard)
            .expect("scan opens")
            .collect::<Result<_, _>>()
            .expect("scan succeeds");
        assert_eq!(batches.len(), 2);
        for (want, got) in [g1, g2].iter().zip(&batches) {
            for (w, g) in want.iter().zip(&got.columns) {
                match (w, g) {
                    (ColumnData::F64(a), ColumnData::F64(b)) => {
                        let a: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                        let b: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(a, b, "f64 bits must round-trip exactly");
                    }
                    _ => assert_eq!(w, g),
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_shard_is_rejected_at_open() {
        let dir = std::env::temp_dir().join("ndt-store-test-trunc");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("full.ndts");
        write_shard(&path, &[group(&[0, 1], &[1, 2], &[3, 4], &[0.5, 0.25])]);
        let bytes = std::fs::read(&path).expect("read back");
        for cut in [bytes.len() - 1, bytes.len() - 5, bytes.len() / 2, 10] {
            let tpath = dir.join(format!("cut-{cut}.ndts"));
            std::fs::write(&tpath, &bytes[..cut]).expect("write truncated");
            let err = Shard::open(&tpath).expect_err("truncated shard must not open");
            assert!(
                matches!(err, StoreError::Corrupt(_) | StoreError::BadMagic),
                "cut at {cut}: unexpected error {err:?}"
            );
            std::fs::remove_file(&tpath).ok();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_payload_bit_fails_at_decode_with_typed_error() {
        let dir = std::env::temp_dir().join("ndt-store-test-flip");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("flip.ndts");
        write_shard(&path, &[group(&[0, 1, 2], &[1, 2, 3], &[4, 5, 6], &[0.5, 0.25, 0.125])]);
        let mut bytes = std::fs::read(&path).expect("read back");
        // Flip a bit in the last page's payload (the f64 column — raw
        // encoding, 24 payload bytes just before the 25-byte footer, so
        // the byte is certainly payload, not header). The footer checksum
        // covers page *checksums*, which are unchanged, so the corruption
        // must be caught by the payload checksum at decode time.
        let idx = bytes.len() - 30;
        bytes[idx] ^= 0x40;
        std::fs::write(&path, &bytes).expect("write corrupted");
        let shard = Shard::open(&path).expect("structure still validates");
        let result: Result<Vec<Batch>, StoreError> =
            Scan::new(&shard).expect("scan opens").collect();
        let err = result.expect_err("corrupt payload must fail decode");
        assert!(
            matches!(
                err,
                StoreError::Page { ref column, error: PageError::Checksum { .. }, .. }
                    if column == "tput"
            ),
            "unexpected error {err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fault_injected_open_surfaces_rot_as_typed_errors() {
        let dir = std::env::temp_dir().join(format!(
            "ndt-store-test-vfs-rot-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("rot.ndts");
        write_shard(&path, &[group(&[0, 1, 2], &[1, 2, 3], &[4, 5, 6], &[0.5, 0.25, 0.125])]);

        // A flipped byte must surface as a typed StoreError — never a
        // panic — unless it lands in a page header's statistics words,
        // the one region no checksum covers (and no reader consults). Sweep
        // seeds so the flip visits several offsets; most must be caught.
        let mut caught = 0;
        for seed in 1..=8u64 {
            let vfs = ndt_vfs::VfsHandle::faulty(ndt_vfs::IoFaultPlan {
                io_seed: seed,
                bit_rot: 1.0,
                ..ndt_vfs::IoFaultPlan::NONE
            });
            let outcome = Shard::open_with(&vfs, &path).and_then(|s| {
                s.verify_payloads()?;
                Scan::new(&s)?.collect::<Result<Vec<Batch>, StoreError>>()?;
                Ok(())
            });
            caught += outcome.is_err() as usize;
        }
        assert!(caught >= 6, "only {caught}/8 rotten opens were caught");
        Shard::open(&path).expect("real filesystem still opens the shard");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_payloads_catches_what_open_accepts() {
        let dir = std::env::temp_dir().join("ndt-store-test-verify");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("verify.ndts");
        write_shard(&path, &[group(&[0, 1, 2], &[1, 2, 3], &[4, 5, 6], &[0.5, 0.25, 0.125])]);
        let clean = Shard::open(&path).expect("opens");
        clean.verify_payloads().expect("clean shard verifies");

        // Same corruption shape as the decode test: a payload bit flip
        // that leaves structure and the footer checksum intact.
        let mut bytes = std::fs::read(&path).expect("read back");
        let idx = bytes.len() - 30;
        bytes[idx] ^= 0x40;
        std::fs::write(&path, &bytes).expect("write corrupted");
        let shard = Shard::open(&path).expect("structure still validates");
        let err = shard.verify_payloads().expect_err("sweep must catch the flip");
        assert!(
            matches!(
                err,
                StoreError::Page { ref column, error: PageError::Checksum { .. }, .. }
                    if column == "tput"
            ),
            "unexpected error {err:?}"
        );
        std::fs::remove_file(&path).ok();
    }
}
