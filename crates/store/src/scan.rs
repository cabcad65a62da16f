//! Streaming scans: iterate a shard group-by-group without ever holding
//! more than one row group's decoded columns in memory.
//!
//! A [`Scan`] walks the groups validated by [`Shard::open`] in file
//! order and decodes every page of every group, so each payload checksum
//! is verified on the way: a scan that finishes has read the whole shard
//! and found it intact. Every consumer reads whole tables (the analyses
//! filter in memory, as the paper's queries do), so there is no
//! projection and no group pruning.

use std::io::{BufReader, Read, Seek, SeekFrom};

use ndt_vfs::VfsFile;

use crate::error::StoreError;
use crate::page::{decode_page, ColumnData};
use crate::shard::Shard;

/// Counters describing what a finished (or in-progress) scan did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Groups whose pages were decoded and emitted.
    pub groups_scanned: u64,
    /// Pages decoded (checksum-verified).
    pub pages_decoded: u64,
    /// Non-aux rows emitted across all batches.
    pub rows_emitted: u64,
    /// Payload bytes read from disk.
    pub bytes_read: u64,
}

/// One row group's decoded columns; a [`Scan`] yields them in file order.
#[derive(Debug)]
pub struct Batch {
    /// One decoded page per schema column, in schema order.
    pub columns: Vec<ColumnData>,
}

/// Iterator of [`Batch`]es over one shard. Create with [`Scan::new`];
/// each call to `next` yields the next group.
pub struct Scan<'a> {
    shard: &'a Shard,
    reader: BufReader<Box<dyn VfsFile>>,
    pos: u64,
    next_group: usize,
    stats: ScanStats,
    payload_buf: Vec<u8>,
}

impl<'a> Scan<'a> {
    /// Opens a scan over every group and column of `shard`.
    pub fn new(shard: &'a Shard) -> Result<Self, StoreError> {
        // Reuse the shard's VFS: a shard opened under fault injection
        // keeps its faults (bit rot in particular) when scanned.
        let reader = BufReader::new(shard.vfs().open(shard.path())?);
        Ok(Self {
            shard,
            reader,
            pos: 0,
            next_group: 0,
            stats: ScanStats::default(),
            payload_buf: Vec::new(),
        })
    }

    /// What the scan has done so far.
    pub fn stats(&self) -> ScanStats {
        self.stats
    }

    fn read_payload(&mut self, offset: u64, len: usize) -> Result<(), StoreError> {
        // Sequential scans mostly move forward through the file; a
        // relative seek keeps the BufReader's buffer when the target is
        // already inside it.
        let delta = offset as i64 - self.pos as i64;
        if delta != 0 {
            if let Err(e) = self.reader.seek_relative(delta) {
                // Backwards seeks past the buffer fall back to absolute.
                let _ = e;
                self.reader.seek(SeekFrom::Start(offset))?;
            }
        }
        self.payload_buf.resize(len, 0);
        self.reader.read_exact(&mut self.payload_buf)?;
        self.pos = offset + len as u64;
        Ok(())
    }

    fn decode_group(&mut self, group_idx: usize) -> Result<Batch, StoreError> {
        let rows = self.shard.groups()[group_idx].rows;
        let ncols = self.shard.schema().columns.len();
        let mut columns = Vec::with_capacity(ncols);
        for col in 0..ncols {
            let meta = self.shard.groups()[group_idx].pages[col];
            let ty = self.shard.schema().columns[col].ty;
            self.read_payload(meta.payload_offset, meta.header.len as usize)?;
            self.stats.bytes_read += meta.header.len as u64;
            let data = decode_page(&meta.header, &self.payload_buf, ty).map_err(|error| {
                StoreError::Page {
                    column: self.shard.schema().columns[col].name.clone(),
                    group: group_idx,
                    error,
                }
            })?;
            self.stats.pages_decoded += 1;
            columns.push(data);
        }
        self.stats.groups_scanned += 1;
        self.stats.rows_emitted += rows as u64;
        Ok(Batch { columns })
    }
}

impl Iterator for Scan<'_> {
    type Item = Result<Batch, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        let idx = self.next_group;
        if idx >= self.shard.groups().len() {
            return None;
        }
        self.next_group += 1;
        Some(self.decode_group(idx))
    }
}
