//! Shard files: write-once containers of row groups.
//!
//! ```text
//! Shard := Header Group* Footer
//! Header := magic "NDS1", version u16, table str, ncols u16,
//!           (name str, type u8, aux u8) × ncols
//! Group  := marker u8 = 1, rows u32, Page × ncols   (schema column order)
//! Footer := marker u8 = 0, nrows u64, ngroups u32,
//!           checksum u64, end magic "NDSE"
//! ```
//!
//! The group/footer marker byte makes truncation unambiguous: after the
//! last group a reader must find either another group or a complete
//! footer, so a shard cut off mid-write fails structural validation in
//! [`Shard::open`] rather than silently losing rows. The footer checksum
//! is FNV-1a over every page checksum in file order — a cheap whole-file
//! integrity summary that [`Shard::open`] verifies without decoding any
//! payload.
//!
//! Columns marked `aux` carry a per-group row count independent of the
//! group's (used for variable-length values flattened next to a lengths
//! column, e.g. AS-path hops); all other columns must agree with the
//! group row count exactly.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};

use ndt_vfs::{VfsFile, VfsHandle};

use crate::error::{PageError, StoreError};
use crate::page::{encode_page, ColType, ColumnData, PageHeader, PAGE_HEADER_LEN};
use crate::wire::{self, CodecError};

/// Shard file magic.
pub const SHARD_MAGIC: [u8; 4] = *b"NDS1";
/// Shard end-of-file magic.
pub const SHARD_END_MAGIC: [u8; 4] = *b"NDSE";
/// Current shard format version.
pub const SHARD_VERSION: u16 = 1;
/// Marker byte introducing a row group.
pub const GROUP_MARKER: u8 = 1;
/// Marker byte introducing the footer.
pub const FOOTER_MARKER: u8 = 0;

/// Rows per group the writers aim for. Large enough to amortize the
/// 36-byte page headers, small enough that one decoded group (a scan's
/// whole working set) stays small.
pub const DEFAULT_GROUP_ROWS: usize = 4096;

/// One column's declaration in a shard schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSpec {
    /// Column name, unique within the schema.
    pub name: String,
    /// Physical type.
    pub ty: ColType,
    /// When true the column's per-group row count is independent of the
    /// group's (variable-length auxiliary values).
    pub aux: bool,
}

impl ColumnSpec {
    /// A regular column bound to the group row count.
    pub fn new(name: &str, ty: ColType) -> Self {
        Self { name: name.to_string(), ty, aux: false }
    }

    /// An auxiliary column with an independent per-group row count.
    pub fn aux(name: &str, ty: ColType) -> Self {
        Self { name: name.to_string(), ty, aux: true }
    }
}

/// A shard's table name and ordered column declarations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// Logical table name (e.g. `"unified"`, `"traces"`).
    pub table: String,
    /// Ordered columns.
    pub columns: Vec<ColumnSpec>,
}

impl Schema {
    /// Builds a schema, which must contain at least one non-aux column
    /// (the group row count is defined by the non-aux columns).
    pub fn new(table: &str, columns: Vec<ColumnSpec>) -> Result<Self, StoreError> {
        if columns.is_empty() || columns.iter().all(|c| c.aux) {
            return Err(StoreError::Schema(format!(
                "table {table:?} needs at least one non-aux column"
            )));
        }
        Ok(Self { table: table.to_string(), columns })
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&SHARD_MAGIC);
        wire::put_u16(out, SHARD_VERSION);
        wire::put_str(out, &self.table);
        wire::put_u16(out, self.columns.len() as u16);
        for col in &self.columns {
            wire::put_str(out, &col.name);
            out.push(col.ty.tag());
            out.push(u8::from(col.aux));
        }
    }
}

/// Byte and row accounting returned by [`ShardWriter::finish`].
///
/// `bytes_raw` is the size the same values would occupy in the plain
/// raw-LE reference encoding (rows × type width, no headers) — the
/// denominator of the store's compression ratio. `bytes_file` is the
/// actual on-disk size including all headers and the footer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteStats {
    /// Rows written (non-aux row count).
    pub rows: u64,
    /// Row groups written.
    pub groups: u64,
    /// Total file bytes, headers and footer included.
    pub bytes_file: u64,
    /// Encoded payload bytes across all pages.
    pub bytes_encoded: u64,
    /// Raw-LE reference size of the same values.
    pub bytes_raw: u64,
}

impl WriteStats {
    /// Folds another shard's stats into this one.
    pub fn merge(&mut self, other: &WriteStats) {
        self.rows += other.rows;
        self.groups += other.groups;
        self.bytes_file += other.bytes_file;
        self.bytes_encoded += other.bytes_encoded;
        self.bytes_raw += other.bytes_raw;
    }
}

/// Streaming writer producing one shard file.
pub struct ShardWriter<W: Write> {
    out: W,
    schema: Schema,
    rows: u64,
    groups: u64,
    checksum_state: u64,
    stats: WriteStats,
    buf: Vec<u8>,
}

impl<W: Write> ShardWriter<W> {
    /// Starts a shard: writes the header immediately.
    pub fn new(mut out: W, schema: Schema) -> Result<Self, StoreError> {
        let mut buf = Vec::with_capacity(256);
        schema.encode(&mut buf);
        out.write_all(&buf)?;
        let header_len = buf.len() as u64;
        buf.clear();
        Ok(Self {
            out,
            schema,
            rows: 0,
            groups: 0,
            checksum_state: wire::FNV_OFFSET_BASIS,
            stats: WriteStats { bytes_file: header_len, ..WriteStats::default() },
            buf,
        })
    }

    /// The schema this writer was opened with.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Encodes and writes one row group. `columns` must match the schema
    /// order; all non-aux columns must have the same length.
    pub fn write_group(&mut self, columns: &[ColumnData]) -> Result<(), StoreError> {
        if columns.len() != self.schema.columns.len() {
            return Err(StoreError::Schema(format!(
                "group has {} columns, schema has {}",
                columns.len(),
                self.schema.columns.len()
            )));
        }
        let mut group_rows: Option<usize> = None;
        for (spec, data) in self.schema.columns.iter().zip(columns) {
            if data.col_type() != spec.ty {
                return Err(StoreError::Schema(format!(
                    "column {:?} expects {:?}, got {:?}",
                    spec.name,
                    spec.ty,
                    data.col_type()
                )));
            }
            if !spec.aux {
                match group_rows {
                    None => group_rows = Some(data.len()),
                    Some(n) if n != data.len() => {
                        return Err(StoreError::Schema(format!(
                            "column {:?} has {} rows, group has {}",
                            spec.name,
                            data.len(),
                            n
                        )));
                    }
                    Some(_) => {}
                }
            }
        }
        // Schema::new guarantees at least one non-aux column.
        let group_rows = group_rows.unwrap_or(0);

        self.buf.clear();
        self.buf.push(GROUP_MARKER);
        wire::put_u32(&mut self.buf, group_rows as u32);
        for (spec, data) in self.schema.columns.iter().zip(columns) {
            let page = encode_page(data);
            self.checksum_state =
                wire::fnv1a64_extend(self.checksum_state, &page.checksum.to_le_bytes());
            self.stats.bytes_encoded += page.payload.len() as u64;
            self.stats.bytes_raw += (data.len() * spec.ty.raw_width()) as u64;
            page.write_to(&mut self.buf);
        }
        self.out.write_all(&self.buf)?;
        self.stats.bytes_file += self.buf.len() as u64;
        self.rows += group_rows as u64;
        self.groups += 1;
        Ok(())
    }

    /// Writes the footer and flushes, returning the sink and the byte
    /// accounting.
    pub fn finish(mut self) -> Result<(W, WriteStats), StoreError> {
        self.buf.clear();
        self.buf.push(FOOTER_MARKER);
        wire::put_u64(&mut self.buf, self.rows);
        wire::put_u32(&mut self.buf, self.groups as u32);
        wire::put_u64(&mut self.buf, self.checksum_state);
        self.buf.extend_from_slice(&SHARD_END_MAGIC);
        self.out.write_all(&self.buf)?;
        self.out.flush()?;
        self.stats.bytes_file += self.buf.len() as u64;
        self.stats.rows = self.rows;
        self.stats.groups = self.groups;
        Ok((self.out, self.stats))
    }
}

/// Location and header of one page inside a shard file.
#[derive(Debug, Clone, Copy)]
pub struct PageMeta {
    /// Parsed page header.
    pub header: PageHeader,
    /// Byte offset of the payload within the file.
    pub payload_offset: u64,
}

/// One validated row group: its row count and per-column page metadata.
#[derive(Debug, Clone)]
pub struct GroupMeta {
    /// Non-aux row count declared by the group.
    pub rows: u32,
    /// One entry per schema column, in order.
    pub pages: Vec<PageMeta>,
}

/// A structurally validated shard: schema plus page locations, ready for
/// [`Scan`](crate::scan::Scan) to stream groups out-of-core.
///
/// [`Shard::open`] walks the whole file header-to-header — every page
/// header parsed, every payload length checked against the file, the
/// footer's row/group counts and checksum-of-checksums verified — so a
/// truncated or bit-flipped shard is rejected here, not mid-scan.
/// Payload checksums are verified later: by a scan, as it decodes each
/// page, or by [`Shard::verify_payloads`] without decoding.
#[derive(Debug, Clone)]
pub struct Shard {
    path: PathBuf,
    schema: Schema,
    groups: Vec<GroupMeta>,
    rows: u64,
    vfs: VfsHandle,
}

/// Bounds-checked reads over a buffered file, mirroring
/// [`wire::Reader`] for streaming sources.
struct FileCursor {
    inner: BufReader<Box<dyn VfsFile>>,
    pos: u64,
}

impl FileCursor {
    fn read_exact(&mut self, buf: &mut [u8], what: &'static str) -> Result<(), StoreError> {
        self.inner.read_exact(buf).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => StoreError::Corrupt(CodecError::Truncated(what)),
            _ => StoreError::Io(e),
        })?;
        self.pos += buf.len() as u64;
        Ok(())
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, StoreError> {
        let mut b = [0u8; 1];
        self.read_exact(&mut b, what)?;
        Ok(b[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, StoreError> {
        let mut b = [0u8; 2];
        self.read_exact(&mut b, what)?;
        Ok(u16::from_le_bytes(b))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, StoreError> {
        let mut b = [0u8; 4];
        self.read_exact(&mut b, what)?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, StoreError> {
        let mut b = [0u8; 8];
        self.read_exact(&mut b, what)?;
        Ok(u64::from_le_bytes(b))
    }

    fn str(&mut self, what: &'static str) -> Result<String, StoreError> {
        let len = self.u32(what)? as usize;
        // Schema strings are short; a multi-megabyte length is corruption,
        // not a name — refuse before allocating.
        if len > 1 << 16 {
            return Err(StoreError::Corrupt(CodecError::InvalidValue {
                what,
                value: len as u64,
            }));
        }
        let mut bytes = vec![0u8; len];
        self.read_exact(&mut bytes, what)?;
        String::from_utf8(bytes).map_err(|_| {
            StoreError::Corrupt(CodecError::InvalidValue { what, value: len as u64 })
        })
    }

    fn skip(&mut self, n: u64) -> Result<(), StoreError> {
        self.inner.seek_relative(n as i64).map_err(StoreError::Io)?;
        self.pos += n;
        Ok(())
    }

    fn at_eof(&mut self) -> Result<bool, StoreError> {
        // `fill_buf` propagates `Interrupted` (unlike `read_exact`, which
        // retries it internally), so absorb EINTR here too — otherwise a
        // transient signal would masquerade as shard corruption.
        loop {
            match self.inner.fill_buf() {
                Ok(buf) => return Ok(buf.is_empty()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(StoreError::Io(e)),
            }
        }
    }
}

impl Shard {
    /// Opens and structurally validates a shard file on the real
    /// filesystem. See [`Shard::open_with`] for the VFS-routed form.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with(&VfsHandle::real(), path)
    }

    /// Opens and structurally validates a shard file, routing every read
    /// — this structural pass, later [`Scan`](crate::scan::Scan)s, and
    /// [`Shard::verify_payloads`] sweeps — through `vfs` so storage
    /// faults can be injected under test.
    pub fn open_with(vfs: &VfsHandle, path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let file_len = vfs.file_len(&path)?;
        let file = vfs.open(&path)?;
        let mut cur = FileCursor { inner: BufReader::new(file), pos: 0 };

        let mut magic = [0u8; 4];
        cur.read_exact(&mut magic, "shard magic")?;
        if magic != SHARD_MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = cur.u16("shard version")?;
        if version != SHARD_VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let table = cur.str("table name")?;
        let ncols = cur.u16("column count")? as usize;
        if ncols == 0 || ncols > 4096 {
            return Err(StoreError::Corrupt(CodecError::InvalidValue {
                what: "column count",
                value: ncols as u64,
            }));
        }
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let name = cur.str("column name")?;
            let ty_tag = cur.u8("column type")?;
            let ty = ColType::from_tag(ty_tag).ok_or(StoreError::Corrupt(
                CodecError::InvalidValue { what: "column type", value: ty_tag as u64 },
            ))?;
            let aux_tag = cur.u8("column aux flag")?;
            if aux_tag > 1 {
                return Err(StoreError::Corrupt(CodecError::InvalidValue {
                    what: "column aux flag",
                    value: aux_tag as u64,
                }));
            }
            columns.push(ColumnSpec { name, ty, aux: aux_tag == 1 });
        }
        let schema = Schema::new(&table, columns)
            .map_err(|_| StoreError::Corrupt(CodecError::InvalidValue {
                what: "schema (all columns aux)",
                value: ncols as u64,
            }))?;

        let mut groups = Vec::new();
        let mut total_rows = 0u64;
        let mut checksum_state = wire::FNV_OFFSET_BASIS;
        loop {
            let marker = cur.u8("group/footer marker")?;
            match marker {
                GROUP_MARKER => {
                    let rows = cur.u32("group rows")?;
                    let mut pages = Vec::with_capacity(schema.columns.len());
                    for spec in &schema.columns {
                        let mut header_bytes = [0u8; PAGE_HEADER_LEN];
                        cur.read_exact(&mut header_bytes, "page header")?;
                        let mut r = wire::Reader::new(&header_bytes);
                        let header = PageHeader::parse(&mut r).map_err(|error| {
                            StoreError::Page {
                                column: spec.name.clone(),
                                group: groups.len(),
                                error,
                            }
                        })?;
                        if !spec.aux && header.rows != rows {
                            return Err(StoreError::Corrupt(CodecError::InvalidValue {
                                what: "page rows vs group rows",
                                value: header.rows as u64,
                            }));
                        }
                        let payload_offset = cur.pos;
                        if payload_offset + header.len as u64 > file_len {
                            return Err(StoreError::Corrupt(CodecError::Truncated(
                                "page payload",
                            )));
                        }
                        checksum_state = wire::fnv1a64_extend(
                            checksum_state,
                            &header.checksum.to_le_bytes(),
                        );
                        pages.push(PageMeta { header, payload_offset });
                        cur.skip(header.len as u64)?;
                    }
                    total_rows += rows as u64;
                    groups.push(GroupMeta { rows, pages });
                }
                FOOTER_MARKER => {
                    let nrows = cur.u64("footer rows")?;
                    let ngroups = cur.u32("footer groups")?;
                    let checksum = cur.u64("footer checksum")?;
                    let mut end = [0u8; 4];
                    cur.read_exact(&mut end, "end magic")?;
                    if end != SHARD_END_MAGIC {
                        return Err(StoreError::Corrupt(CodecError::BadMagic));
                    }
                    if nrows != total_rows || ngroups as usize != groups.len() {
                        return Err(StoreError::Corrupt(CodecError::InvalidValue {
                            what: "footer row/group counts",
                            value: nrows,
                        }));
                    }
                    if checksum != checksum_state {
                        return Err(StoreError::Footer { want: checksum, got: checksum_state });
                    }
                    if !cur.at_eof()? {
                        return Err(StoreError::Corrupt(CodecError::TrailingBytes(
                            (file_len - cur.pos) as usize,
                        )));
                    }
                    return Ok(Self {
                        path,
                        schema,
                        groups,
                        rows: total_rows,
                        vfs: vfs.clone(),
                    });
                }
                other => {
                    return Err(StoreError::Corrupt(CodecError::InvalidValue {
                        what: "group/footer marker",
                        value: other as u64,
                    }));
                }
            }
        }
    }

    /// Reads every page payload and verifies its FNV-1a checksum against
    /// the page header — the deep counterpart to [`Shard::open`]'s
    /// structural pass. One sequential sweep, no decoding. A full scan
    /// verifies the same checksums as it decodes; use this when a file
    /// must be trusted *in full* without decoding it — e.g. shard-level
    /// resume deciding whether to regenerate.
    pub fn verify_payloads(&self) -> Result<(), StoreError> {
        let file = self.vfs.open(&self.path)?;
        let mut reader = BufReader::new(file);
        let mut pos: u64 = 0;
        let mut buf = Vec::new();
        for (group_idx, group) in self.groups.iter().enumerate() {
            for (page, spec) in group.pages.iter().zip(&self.schema.columns) {
                reader
                    .seek_relative((page.payload_offset - pos) as i64)
                    .map_err(StoreError::Io)?;
                buf.resize(page.header.len as usize, 0);
                reader.read_exact(&mut buf).map_err(|e| match e.kind() {
                    std::io::ErrorKind::UnexpectedEof => {
                        StoreError::Corrupt(CodecError::Truncated("page payload"))
                    }
                    _ => StoreError::Io(e),
                })?;
                pos = page.payload_offset + page.header.len as u64;
                let got = wire::fnv1a64(&buf);
                if got != page.header.checksum {
                    return Err(StoreError::Page {
                        column: spec.name.clone(),
                        group: group_idx,
                        error: PageError::Checksum { want: page.header.checksum, got },
                    });
                }
            }
        }
        Ok(())
    }

    /// The file this shard was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The VFS this shard was opened through; scans reuse it so a
    /// fault-injected open stays fault-injected when its pages are read.
    pub fn vfs(&self) -> &VfsHandle {
        &self.vfs
    }

    /// The shard's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Validated row groups in file order.
    pub fn groups(&self) -> &[GroupMeta] {
        &self.groups
    }

    /// Total non-aux rows across all groups.
    pub fn rows(&self) -> u64 {
        self.rows
    }
}
