//! Columnar, interned trace datasets with the inverted indexes the SMASH
//! pipeline consumes (the in-memory half of DESIGN.md §12).

use crate::columns::{RecordColumns, NO_ID};
use crate::interner::Interner;
use crate::record::{HttpRecord, RecordFields};
use crate::server::ServerKey;
use crate::uri::{parameter_pattern, uri_file, uri_path};
use smash_support::par;
use smash_support::wire::{self, FromWire, Reader, ToWire, WireError};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Dense id of an (aggregated) server within a [`TraceDataset`].
pub type ServerId = u32;

/// The row *view* of one HTTP request, assembled on demand from the
/// column arena — never the storage format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactRecord {
    /// Seconds since trace start.
    pub timestamp: u64,
    /// Interned client id.
    pub client: u32,
    /// Aggregated server id (second-level domain or IP).
    pub server: ServerId,
    /// Interned full host name (pre-aggregation).
    pub host: u32,
    /// Interned server IP.
    pub ip: u32,
    /// Interned URI file (`""` for directory requests).
    pub file: u32,
    /// Interned URI path.
    pub path: u32,
    /// Interned parameter pattern (`""` when no query string).
    pub param_pattern: u32,
    /// Interned user-agent.
    pub user_agent: u32,
    /// Referring server, aggregated, if any.
    pub referrer: Option<ServerId>,
    /// HTTP status code.
    pub status: u16,
    /// Response body size in bytes (`0` when unknown).
    pub resp_bytes: u32,
    /// Redirect target server, aggregated, if any.
    pub redirect_to: Option<ServerId>,
}

/// A full trace: the columnar record arena, the symbol tables behind its
/// interned ids, and the per-server postings every dimension shares.
///
/// Servers are aggregated per the paper's preprocessing step (§III-A):
/// hosts sharing a second-level domain are one server; IP-literal hosts
/// are servers keyed by IP. The postings (server → sorted client ids,
/// file ids, IP ids, referrer ids) are built once during ingest and
/// handed out as borrowed slices — the dimension builders, the LSH
/// candidate generator, and Louvain all run on these integers and never
/// hash a raw string.
///
/// # Example
///
/// ```
/// use smash_trace::{HttpRecord, TraceDataset};
///
/// let ds = TraceDataset::from_records(vec![
///     HttpRecord::new(0, "c1", "www.shop.com", "9.9.9.9", "/buy.php?id=4"),
///     HttpRecord::new(1, "c1", "img.shop.com", "9.9.9.8", "/logo.png"),
/// ]);
/// let sid = ds.server_id("shop.com").unwrap();
/// assert_eq!(ds.clients_of(sid).len(), 1);
/// assert_eq!(ds.files_of(sid).len(), 2); // buy.php, logo.png
/// assert_eq!(ds.ips_of(sid).len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceDataset {
    clients: Interner,
    servers: Interner,
    server_keys: Vec<ServerKey>,
    hosts: Interner,
    ips: Interner,
    files: Interner,
    paths: Interner,
    params: Interner,
    user_agents: Interner,
    cols: RecordColumns,
    // Postings, all sorted + deduplicated except `server_records`
    // (which stays in record order).
    server_clients: Vec<Vec<u32>>,
    server_files: Vec<Vec<u32>>,
    server_ips: Vec<Vec<u32>>,
    server_records: Vec<Vec<u32>>,
    server_referrers: Vec<Vec<ServerId>>,
}

impl ToWire for TraceDataset {
    fn wire(&self, out: &mut Vec<u8>) {
        self.clients.wire(out);
        self.servers.wire(out);
        self.server_keys.wire(out);
        self.hosts.wire(out);
        self.ips.wire(out);
        self.files.wire(out);
        self.paths.wire(out);
        self.params.wire(out);
        self.user_agents.wire(out);
        self.cols.wire(out);
        self.server_clients.wire(out);
        self.server_files.wire(out);
        self.server_ips.wire(out);
        self.server_records.wire(out);
        self.server_referrers.wire(out);
    }
}

/// The sequential reader: every section of the payload decoded inline,
/// in wire order — the same decoders the day loader spreads over
/// threads (DESIGN.md §12.4).
impl FromWire for TraceDataset {
    fn from_wire(r: &mut Reader<'_>) -> Result<Self, WireError> {
        assemble(SECTIONS.iter().map(|section| section.decode(r)))
    }
}

/// One section of a dataset's wire form: a unit the day loader can find
/// the end of from its length prefixes alone and decode on its own.
#[derive(Debug, Clone, Copy)]
enum Section {
    /// A symbol table ([`Interner`]).
    Table,
    /// The server keys.
    Keys,
    /// The `u64` timestamp column.
    Wide,
    /// A `u32` column.
    Cells,
    /// The `u16` status column.
    Narrow,
    /// A posting table (`Vec<Vec<u32>>`).
    Postings,
}

/// The 27 sections of a dataset payload, in wire order: the eight
/// symbol tables with the server keys third, the thirteen record
/// columns, the five posting tables.
const SECTIONS: [Section; 27] = {
    use Section::{Cells, Keys, Narrow, Postings, Table, Wide};
    [
        Table, Table, Keys, Table, Table, Table, Table, Table, Table, //
        Wide, Cells, Cells, Cells, Cells, Cells, Cells, Cells, Cells, Cells, Narrow, Cells, Cells,
        Postings, Postings, Postings, Postings, Postings,
    ]
};

/// A decoded [`Section`].
#[derive(Debug)]
enum Decoded {
    Table(Interner),
    Keys(Vec<ServerKey>),
    Wide(Vec<u64>),
    Cells(Vec<u32>),
    Narrow(Vec<u16>),
    Postings(Vec<Vec<u32>>),
}

impl Section {
    /// Whether this is one of the thirteen record columns.
    fn is_column(self) -> bool {
        matches!(self, Section::Wide | Section::Cells | Section::Narrow)
    }

    /// Decodes one section.
    fn decode(self, r: &mut Reader<'_>) -> Result<Decoded, WireError> {
        Ok(match self {
            Section::Table => Decoded::Table(Interner::from_wire(r)?),
            Section::Keys => Decoded::Keys(Vec::from_wire(r)?),
            Section::Wide => Decoded::Wide(Vec::from_wire(r)?),
            Section::Cells => Decoded::Cells(Vec::from_wire(r)?),
            Section::Narrow => Decoded::Narrow(Vec::from_wire(r)?),
            Section::Postings => Decoded::Postings(Vec::from_wire(r)?),
        })
    }

    /// Steps over one section reading only its length prefixes (the
    /// server keys, a few thousand, are decoded: their tags decide their
    /// lengths). Fails wherever [`decode`](Self::decode) would fail on
    /// the structure; content checks are left to the decode.
    fn skip(self, r: &mut Reader<'_>) -> Result<(), WireError> {
        let cells = |r: &mut Reader<'_>, width: usize| {
            let len = r.length()?;
            r.slab(len, width).map(drop)
        };
        match self {
            Section::Table => {
                for _ in 0..r.length()? {
                    cells(r, 1)?;
                }
            }
            Section::Keys => drop(Vec::<ServerKey>::from_wire(r)?),
            Section::Wide => cells(r, 8)?,
            Section::Cells => cells(r, 4)?,
            Section::Narrow => cells(r, 2)?,
            Section::Postings => {
                for _ in 0..r.length()? {
                    cells(r, 4)?;
                }
            }
        }
        Ok(())
    }
}

/// Builds a dataset from its sections' decode results in wire order.
/// The first error in that order is the verdict, and the record
/// columns' length check falls between the columns and the postings —
/// exactly where a reader going front to back meets each.
fn assemble(
    mut sections: impl Iterator<Item = Result<Decoded, WireError>>,
) -> Result<TraceDataset, WireError> {
    let mut next = || {
        sections
            .next()
            .unwrap_or_else(|| Err(WireError("missing section".to_owned())))
    };
    let misplaced = || WireError("section out of wire order".to_owned());
    macro_rules! take {
        ($variant:ident) => {
            match next()? {
                Decoded::$variant(value) => value,
                _ => return Err(misplaced()),
            }
        };
    }
    Ok(TraceDataset {
        clients: take!(Table),
        servers: take!(Table),
        server_keys: take!(Keys),
        hosts: take!(Table),
        ips: take!(Table),
        files: take!(Table),
        paths: take!(Table),
        params: take!(Table),
        user_agents: take!(Table),
        cols: {
            let timestamps = take!(Wide);
            let mut ids: [Vec<u32>; 9] = Default::default();
            for id in &mut ids {
                *id = take!(Cells);
            }
            let statuses = take!(Narrow);
            let resp_bytes = take!(Cells);
            let redirects = take!(Cells);
            RecordColumns::from_wire_columns(timestamps, ids, statuses, resp_bytes, redirects)?
        },
        server_clients: take!(Postings),
        server_files: take!(Postings),
        server_ips: take!(Postings),
        server_records: take!(Postings),
        server_referrers: take!(Postings),
    })
}

/// An in-progress append: records go in through
/// [`push_fields`](Self::push_fields) (or [`push`](Self::push), or a
/// whole decoded chunk at a time from the JSONL reader), and dropping
/// the appender re-sorts and deduplicates the postings of the servers
/// it touched. It holds the dataset's one mutable borrow while those
/// are unsorted, so no reader sees the intermediate state — even when
/// the feeding loop bails out early or unwinds.
#[derive(Debug)]
pub struct Appender<'a> {
    ds: &'a mut TraceDataset,
    /// Arena index of the first record this appender adds.
    first_new: u32,
    /// Servers that received a record since `first_new`.
    touched: Vec<ServerId>,
    /// Raw host string → server id, for the hosts this appender has
    /// already aggregated: a repeat (nearly every record's host,
    /// referrer and redirect target) skips lowercasing, label splitting
    /// and the key's `to_string`. Scratch state — it dies with the
    /// appender and is neither serialized nor part of `heap_bytes`; it
    /// holds at most one entry per distinct host string pushed.
    server_memo: HashMap<String, ServerId>,
    /// Server IP → id in the IP table, scratch like `server_memo`: a
    /// repeat skips formatting the address to look its text up.
    ip_memo: HashMap<Ipv4Addr, u32>,
}

impl Appender<'_> {
    /// Interns one owned record: [`push_fields`](Self::push_fields) of
    /// its borrowed fields.
    pub fn push(&mut self, r: &HttpRecord) {
        self.push_fields(&r.fields());
    }

    /// The aggregated server id of a raw host string.
    fn server_of(&mut self, host: &str) -> ServerId {
        if let Some(&id) = self.server_memo.get(host) {
            return id;
        }
        let id = self.ds.intern_server(host);
        self.server_memo.insert(host.to_owned(), id);
        id
    }

    /// The IP-table id of a server address.
    fn ip_of(&mut self, ip: Ipv4Addr) -> u32 {
        let ips = &mut self.ds.ips;
        *self
            .ip_memo
            .entry(ip)
            .or_insert_with(|| ips.intern(&ip.to_string()))
    }

    /// Interns one record into the arena and its server's postings.
    /// Only the first sight of a symbol allocates; a record whose
    /// strings are all known costs hash lookups and column pushes.
    pub fn push_fields(&mut self, r: &RecordFields<'_>) {
        let server = self.server_of(&r.host);
        let referrer = r.referrer.as_deref().map(|h| self.server_of(h));
        let redirect_to = r.redirect_to.as_deref().map(|h| self.server_of(h));
        let ip = self.ip_of(r.server_ip);
        let ds = &mut *self.ds;
        let file = uri_file(&r.uri);
        let rec = CompactRecord {
            timestamp: r.timestamp,
            client: ds.clients.intern(&r.client),
            server,
            host: ds.hosts.intern(&r.host),
            ip,
            file: ds.files.intern(file),
            path: ds.paths.intern(uri_path(&r.uri)),
            param_pattern: intern_param_pattern(&mut ds.params, &r.uri),
            user_agent: ds.user_agents.intern(&r.user_agent),
            referrer,
            status: r.status,
            resp_bytes: r.resp_bytes,
            redirect_to,
        };
        self.push_compact(rec, file.is_empty());
    }

    /// Merges one decoded chunk, whose records follow every record
    /// already pushed. The chunk's symbols are interned table by table
    /// in its local-id order — which is the order the chunk first saw
    /// them — so every table issues its new ids exactly as pushing the
    /// chunk's records one by one would have; then the rows, remapped
    /// to those ids, go through the same [`push_compact`](Self::push_compact).
    pub(crate) fn merge_chunk(&mut self, chunk: &ChunkArena) {
        let servers: Vec<ServerId> = chunk.names.iter().map(|(_, h)| self.server_of(h)).collect();
        let ips: Vec<u32> = chunk.ips.iter().map(|&ip| self.ip_of(ip)).collect();
        let ds = &mut *self.ds;
        let remap = |local: &Interner, global: &mut Interner| -> Vec<u32> {
            local.iter().map(|(_, s)| global.intern(s)).collect()
        };
        let clients = remap(&chunk.clients, &mut ds.clients);
        let hosts = remap(&chunk.hosts, &mut ds.hosts);
        let files = remap(&chunk.files, &mut ds.files);
        let paths = remap(&chunk.paths, &mut ds.paths);
        let params = remap(&chunk.params, &mut ds.params);
        let user_agents = remap(&chunk.user_agents, &mut ds.user_agents);
        let no_file = chunk.files.get("");
        let global = |ids: &[u32], local: u32| ids.get(local as usize).copied();
        for row in &chunk.rows {
            let server = |local: Option<u32>| match local {
                Some(id) => global(&servers, id).map(Some),
                None => Some(None),
            };
            // Every local id was issued by the chunk's own tables; a
            // miss would be a chunk-arena bug, and skipping the record
            // beats panicking mid-ingest.
            let rec = (|| {
                Some(CompactRecord {
                    timestamp: row.timestamp,
                    client: global(&clients, row.client)?,
                    server: global(&servers, row.server)?,
                    host: global(&hosts, row.host)?,
                    ip: global(&ips, row.ip)?,
                    file: global(&files, row.file)?,
                    path: global(&paths, row.path)?,
                    param_pattern: global(&params, row.param_pattern)?,
                    user_agent: global(&user_agents, row.user_agent)?,
                    referrer: server(row.referrer)?,
                    status: row.status,
                    resp_bytes: row.resp_bytes,
                    redirect_to: server(row.redirect_to)?,
                })
            })();
            if let Some(rec) = rec {
                self.push_compact(rec, Some(row.file) == no_file);
            }
        }
    }

    /// Appends one interned record to the columns and its server's
    /// postings — the one routine both [`push_fields`](Self::push_fields)
    /// and a chunk merge end in. `is_dir` says the request named no
    /// file, so the server's file posting skips it.
    fn push_compact(&mut self, rec: CompactRecord, is_dir: bool) {
        let ds = &mut *self.ds;
        let idx = ds.cols.len() as u32;
        ds.grow_postings();
        let s = rec.server as usize;
        // Interned server ids are dense indexes into the postings;
        // a miss would be an interner bug, and skipping the record
        // beats panicking mid-ingest.
        if let (Some(sc), Some(sf), Some(si), Some(sr), Some(sref)) = (
            ds.server_clients.get_mut(s),
            ds.server_files.get_mut(s),
            ds.server_ips.get_mut(s),
            ds.server_records.get_mut(s),
            ds.server_referrers.get_mut(s),
        ) {
            // Record postings stay in record order, so the last entry
            // tells whether this append has been here before.
            if sr.last().is_none_or(|&last| last < self.first_new) {
                self.touched.push(rec.server);
            }
            sc.push(rec.client);
            if !is_dir {
                sf.push(rec.file);
            }
            si.push(rec.ip);
            sr.push(idx);
            if let Some(rf) = rec.referrer {
                sref.push(rf);
            }
            ds.cols.push(rec);
        }
    }
}

impl Drop for Appender<'_> {
    fn drop(&mut self) {
        let ds = &mut *self.ds;
        for &server in &self.touched {
            let s = server as usize;
            let postings = (ds.server_clients.get_mut(s).into_iter())
                .chain(ds.server_files.get_mut(s))
                .chain(ds.server_ips.get_mut(s))
                .chain(ds.server_referrers.get_mut(s));
            for posting in postings {
                posting.sort_unstable();
                posting.dedup();
            }
        }
    }
}

/// The parameter-pattern id of a URI: a URI without `?` — the common
/// case — interns `""` without building a pattern.
fn intern_param_pattern(params: &mut Interner, uri: &str) -> u32 {
    if uri.contains('?') {
        params.intern(&parameter_pattern(uri))
    } else {
        params.intern("")
    }
}

/// One chunk of a JSONL trace, decoded and interned on its own: the
/// chunk's symbol tables in the order the chunk first saw each string,
/// and its rows as [`CompactRecord`]s of *local* ids. Worker threads
/// build these side by side; [`Appender::merge_chunk`] folds them into
/// the arena in input order. It holds no postings and does no
/// [`ServerKey`] work: `names` keeps each raw host, referrer and
/// redirect string as written (a row's `server`, `referrer` and
/// `redirect_to` index it), and aggregation happens once per distinct
/// string at the merge, through the appender's memo.
#[derive(Debug, Default)]
pub(crate) struct ChunkArena {
    clients: Interner,
    names: Interner,
    hosts: Interner,
    ips: Vec<Ipv4Addr>,
    ip_ids: HashMap<Ipv4Addr, u32>,
    files: Interner,
    paths: Interner,
    params: Interner,
    user_agents: Interner,
    rows: Vec<CompactRecord>,
}

impl ChunkArena {
    /// Empties the chunk for the next one, keeping its allocations.
    pub(crate) fn clear(&mut self) {
        let tables = [
            &mut self.clients,
            &mut self.names,
            &mut self.hosts,
            &mut self.files,
            &mut self.paths,
            &mut self.params,
            &mut self.user_agents,
        ];
        for table in tables {
            table.clear();
        }
        self.ips.clear();
        self.ip_ids.clear();
        self.rows.clear();
    }

    /// Interns one record into the chunk, in the same table order as
    /// [`Appender::push_fields`].
    pub(crate) fn push(&mut self, r: &RecordFields<'_>) {
        let server = self.names.intern(&r.host);
        let referrer = r.referrer.as_deref().map(|h| self.names.intern(h));
        let redirect_to = r.redirect_to.as_deref().map(|h| self.names.intern(h));
        let next = self.ips.len() as u32;
        let ip = *self.ip_ids.entry(r.server_ip).or_insert(next);
        if ip == next {
            self.ips.push(r.server_ip);
        }
        self.rows.push(CompactRecord {
            timestamp: r.timestamp,
            client: self.clients.intern(&r.client),
            server,
            host: self.hosts.intern(&r.host),
            ip,
            file: self.files.intern(uri_file(&r.uri)),
            path: self.paths.intern(uri_path(&r.uri)),
            param_pattern: intern_param_pattern(&mut self.params, &r.uri),
            user_agent: self.user_agents.intern(&r.user_agent),
            referrer,
            status: r.status,
            resp_bytes: r.resp_bytes,
            redirect_to,
        });
    }
}

impl TraceDataset {
    /// Builds a dataset from raw records: an empty arena plus one
    /// append.
    pub fn from_records<I: IntoIterator<Item = HttpRecord>>(records: I) -> Self {
        let mut ds = TraceDataset::default();
        ds.append(records);
        ds
    }

    /// Absorbs more records into the arena, interning and indexing.
    ///
    /// Ingest is a single pass: each record's fields go straight into
    /// the column arena and its ids into the per-server postings, so a
    /// lazy record iterator (the streamed ISP-scale generator) is never
    /// buffered in row form. Interning is first-seen order and touched
    /// postings are re-sorted and deduplicated at the end, so a trace
    /// appended in any number of chunks is byte-identical (wire form,
    /// [`fingerprint`](Self::fingerprint)) to one-shot
    /// [`from_records`](Self::from_records).
    pub fn append<I: IntoIterator<Item = HttpRecord>>(&mut self, records: I) {
        let mut appender = self.appender();
        for r in records {
            appender.push(&r);
        }
    }

    /// Opens a record-at-a-time append, for producers that push (the
    /// streaming file reader) rather than hand over an iterator.
    pub fn appender(&mut self) -> Appender<'_> {
        Appender {
            first_new: self.cols.len() as u32,
            ds: self,
            touched: Vec::new(),
            server_memo: HashMap::new(),
            ip_memo: HashMap::new(),
        }
    }

    /// Decodes a day payload — all of it, trailing bytes refused — on
    /// two threads (DESIGN.md §12.4). One pass over the length prefixes
    /// finds where each [`Section`] ends; the record columns then decode
    /// beside the symbol tables, keys and postings ([`par::join`]), each
    /// section from its start exactly as the sequential reader would
    /// meet it, and [`assemble`] takes the results in wire order, so the
    /// verdict is the sequential reader's: the first failing section's
    /// error, then trailing bytes. A payload whose prefixes do not chain
    /// goes to the sequential reader whole.
    pub(crate) fn from_payload(payload: &[u8]) -> Result<Self, WireError> {
        let at = |r: &Reader<'_>| payload.len() - r.remaining();
        let mut r = Reader::new(payload);
        let mut bounds = Vec::with_capacity(SECTIONS.len());
        for section in SECTIONS {
            let start = at(&r);
            if section.skip(&mut r).is_err() {
                return wire::decode(payload);
            }
            bounds.push((section, start, at(&r)));
        }
        let end = at(&r);
        // Each section reads everything from its start on, as it would
        // in line, and must stop where the scan said it ends. A group
        // decodes its own sections and leaves the other's positions
        // empty.
        let decode = |columns: bool| -> Vec<_> {
            let one = |&(section, start, end): &(Section, usize, usize)| {
                let mut r = Reader::new(payload.get(start..).unwrap_or_default());
                let out = section.decode(&mut r);
                (out.is_err() || at(&r) == end).then_some(out)
            };
            bounds
                .iter()
                .map(|bound| (bound.0.is_column() == columns).then(|| one(bound)))
                .collect()
        };
        // The record columns — most of a day's bytes — decode on the
        // calling thread, everything else beside them: what a helper
        // thread allocates comes from an allocator arena of its own, and
        // a process that loads day after day would keep a high-water
        // mark in each arena.
        let (columns, others) = par::join(|| decode(true), || decode(false));
        let in_order = columns
            .into_iter()
            .zip(others)
            .map(|(c, o)| c.or(o).flatten());
        let Some(decoded) = in_order.collect::<Option<Vec<_>>>() else {
            return wire::decode(payload);
        };
        let ds = assemble(decoded.into_iter())?;
        match payload.len() - end {
            0 => Ok(ds),
            trailing => Err(WireError(format!("{trailing} trailing byte(s)"))),
        }
    }

    fn intern_server(&mut self, host: &str) -> ServerId {
        let key = ServerKey::from_host(host);
        let name = key.to_string();
        let before = self.servers.len();
        let id = self.servers.intern(&name);
        if self.servers.len() > before {
            self.server_keys.push(key);
        }
        id
    }

    /// Extends every posting table to cover all interned server ids.
    fn grow_postings(&mut self) {
        let n = self.servers.len();
        if self.server_clients.len() < n {
            self.server_clients.resize_with(n, Vec::new);
            self.server_files.resize_with(n, Vec::new);
            self.server_ips.resize_with(n, Vec::new);
            self.server_records.resize_with(n, Vec::new);
            self.server_referrers.resize_with(n, Vec::new);
        }
    }

    /// Number of aggregated servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Number of distinct clients.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Number of distinct non-empty URI files.
    pub fn file_count(&self) -> usize {
        let has_empty = self.files.get("").is_some();
        self.files.len() - usize::from(has_empty)
    }

    /// Total number of HTTP requests.
    pub fn record_count(&self) -> usize {
        self.cols.len()
    }

    /// Iterates the assembled row views in input order.
    pub fn records(&self) -> impl Iterator<Item = CompactRecord> + '_ {
        self.cols.iter()
    }

    /// Re-emits raw records from the arena, in input order — the
    /// inverse of ingest, up to what interning keeps. Three things are
    /// lost: hosts come back aggregated to their server; the
    /// value-blanked parameter pattern (`p=[]&id=[]`) is refilled with
    /// the placeholder value `0`, so only the query-key structure
    /// survives; and `method`, which the arena does not keep, comes back
    /// as `GET`.
    pub fn raw_records(&self) -> impl Iterator<Item = HttpRecord> + '_ {
        self.records().map(|r| {
            let path = self.path_name(r.path);
            let pattern = self.param_pattern_name(r.param_pattern);
            let uri = if pattern.is_empty() {
                path.to_owned()
            } else {
                format!("{path}?{}", pattern.replace("=[]", "=0"))
            };
            let mut rec = HttpRecord::new(
                r.timestamp,
                self.client_name(r.client),
                self.server_name(r.server),
                self.ip_name(r.ip),
                &uri,
            )
            .with_user_agent(self.user_agent_name(r.user_agent))
            .with_status(r.status)
            .with_resp_bytes(r.resp_bytes);
            if let Some(rf) = r.referrer {
                rec = rec.with_referrer(self.server_name(rf));
            }
            if let Some(rd) = r.redirect_to {
                rec = rec.with_redirect_to(self.server_name(rd));
            }
            rec
        })
    }

    /// The row view of record `i`, or `None` past the end.
    pub fn record(&self, i: usize) -> Option<CompactRecord> {
        self.cols.get(i)
    }

    /// The underlying column arena (DESIGN.md §12).
    pub fn columns(&self) -> &RecordColumns {
        &self.cols
    }

    /// The eight symbol tables, in wire order.
    fn tables(&self) -> [&Interner; 8] {
        [
            &self.clients,
            &self.servers,
            &self.hosts,
            &self.ips,
            &self.files,
            &self.paths,
            &self.params,
            &self.user_agents,
        ]
    }

    /// Payload bytes of the arena: columns, postings, and the symbol
    /// tables ([`Interner::heap_bytes`]: every string once, 4 B per
    /// offset, 8 B per probe slot). Exact for the fixed-width parts;
    /// allocator headers and slack are deliberately not modeled, so the
    /// figure is a function of the trace alone (the `ingest/arena_bytes`
    /// counter and the daemon's `serve/arena/bytes` gauge report it).
    pub fn heap_bytes(&self) -> u64 {
        let postings: u64 = [
            &self.server_clients,
            &self.server_files,
            &self.server_ips,
            &self.server_records,
            &self.server_referrers,
        ]
        .iter()
        .map(|t| t.iter().map(|v| v.len() as u64 * 4).sum::<u64>())
        .sum();
        let tables: u64 = self.tables().iter().map(|t| t.heap_bytes()).sum();
        self.cols.payload_bytes() + postings + tables
    }

    /// FNV-1a fingerprint of the dataset (`fnv1a:<16 hex digits>`).
    ///
    /// Hashes the wire form of the symbol tables, server keys, and the
    /// column arena in one streaming pass through a buffer of a few
    /// KiB — no serialized copy of the dataset is materialized. The
    /// postings are derived from the columns deterministically, so they
    /// contribute nothing new and are skipped. A day file's round trip
    /// is checked against it (`load_day(save_day(ds))`).
    pub fn fingerprint(&self) -> String {
        use smash_support::ckpt::{fingerprint_string, Fnv1a};
        let mut h = Fnv1a::new();
        let mut buf = Vec::new();
        let mut sink = |piece: &[u8]| h.write(piece);
        for table in self.tables() {
            table.wire_pieces(&mut buf, &mut sink);
        }
        wire::wire_pieces(&self.server_keys, &mut buf, &mut sink);
        self.cols.wire_pieces(&mut buf, &mut sink);
        fingerprint_string(h.finish())
    }

    /// The [`ServerKey`] of a server id, or `None` for an id this
    /// dataset never interned.
    pub fn server_key(&self, id: ServerId) -> Option<&ServerKey> {
        self.server_keys.get(id as usize)
    }

    /// The display name of a server id (domain or dotted IP).
    pub fn server_name(&self, id: ServerId) -> &str {
        self.servers.resolve(id)
    }

    /// Looks up a server id by aggregated name.
    pub fn server_id(&self, name: &str) -> Option<ServerId> {
        self.servers.get(name)
    }

    /// The display name of a client id.
    pub fn client_name(&self, id: u32) -> &str {
        self.clients.resolve(id)
    }

    /// Looks up a client id by name.
    pub fn client_id(&self, name: &str) -> Option<u32> {
        self.clients.get(name)
    }

    /// The string of an interned URI file id.
    pub fn file_name(&self, id: u32) -> &str {
        self.files.resolve(id)
    }

    /// Looks up a URI-file id by string.
    pub fn file_id(&self, name: &str) -> Option<u32> {
        self.files.get(name)
    }

    /// Looks up a parameter-pattern id by string.
    pub fn param_pattern_id(&self, pattern: &str) -> Option<u32> {
        self.params.get(pattern)
    }

    /// Looks up a user-agent id by string.
    pub fn user_agent_id(&self, ua: &str) -> Option<u32> {
        self.user_agents.get(ua)
    }

    /// The string of an interned parameter-pattern id.
    pub fn param_pattern_name(&self, id: u32) -> &str {
        self.params.resolve(id)
    }

    /// The string of an interned user-agent id.
    pub fn user_agent_name(&self, id: u32) -> &str {
        self.user_agents.resolve(id)
    }

    /// The string of an interned IP id.
    pub fn ip_name(&self, id: u32) -> &str {
        self.ips.resolve(id)
    }

    /// The string of an interned path id.
    pub fn path_name(&self, id: u32) -> &str {
        self.paths.resolve(id)
    }

    /// Sorted, deduplicated client ids that contacted `server`. A rogue
    /// id yields the empty slice rather than a panic.
    pub fn clients_of(&self, server: ServerId) -> &[u32] {
        self.server_clients
            .get(server as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// Sorted, deduplicated non-empty URI-file ids requested on `server`.
    /// A rogue id yields the empty slice rather than a panic.
    pub fn files_of(&self, server: ServerId) -> &[u32] {
        self.server_files
            .get(server as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// Sorted, deduplicated IP ids `server` resolved to. A rogue id
    /// yields the empty slice rather than a panic.
    pub fn ips_of(&self, server: ServerId) -> &[u32] {
        self.server_ips
            .get(server as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// Arena indexes (in record order) of the requests to `server`.
    pub fn record_ids_of(&self, server: ServerId) -> &[u32] {
        self.server_records
            .get(server as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// Assembled row views of the requests to `server`, in record order.
    pub fn records_of(&self, server: ServerId) -> impl Iterator<Item = CompactRecord> + '_ {
        self.record_ids_of(server)
            .iter()
            .filter_map(|&i| self.cols.get(i as usize))
    }

    /// Sorted, deduplicated servers that referred clients to `server`.
    /// A rogue id yields the empty slice rather than a panic.
    pub fn referrers_of(&self, server: ServerId) -> &[ServerId] {
        self.server_referrers
            .get(server as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// The redirect target of `server`, if any 3xx response with a
    /// `Location` was observed (the most frequent target wins).
    pub fn redirect_of(&self, server: ServerId) -> Option<ServerId> {
        let mut counts: HashMap<ServerId, u32> = HashMap::new();
        for r in self.records_of(server) {
            if let Some(t) = r.redirect_to {
                if t != server {
                    *counts.entry(t).or_insert(0) += 1;
                }
            }
        }
        counts
            .into_iter()
            .max_by_key(|&(t, c)| (c, std::cmp::Reverse(t)))
            .map(|(t, _)| t)
    }

    /// Fraction of requests to `server` whose response was an error
    /// (4xx/5xx or missing) — the paper's "suspicious" existence check.
    /// Reads only the status column; no row views are assembled.
    pub fn error_rate_of(&self, server: ServerId) -> f64 {
        let recs = self.record_ids_of(server);
        if recs.is_empty() {
            return 0.0;
        }
        let statuses = self.cols.statuses();
        let errors = recs
            .iter()
            .filter_map(|&i| statuses.get(i as usize))
            .filter(|&&st| st == 0 || st >= 400)
            .count();
        errors as f64 / recs.len() as f64
    }

    /// Iterates over all server ids.
    pub fn server_ids(&self) -> impl Iterator<Item = ServerId> {
        0..self.servers.len() as ServerId
    }

    /// Checks every cross-table invariant of the data-layout contract
    /// (DESIGN.md §12): column ids resolve in their symbol tables,
    /// postings cover exactly the interned servers, sorted postings are
    /// sorted and deduplicated, and record postings index real records.
    /// The `SMSHCOLS` loader runs this on every decoded day, so a file
    /// that checksums clean but lies structurally is still rejected.
    pub fn validate(&self) -> Result<(), String> {
        let n_servers = self.servers.len();
        if self.server_keys.len() != n_servers {
            return Err(format!(
                "{} server keys for {n_servers} servers",
                self.server_keys.len()
            ));
        }
        for (id, key) in self.server_keys.iter().enumerate() {
            let name = self.servers.resolve_checked(id as u32);
            if name != Some(key.to_string().as_str()) {
                return Err(format!("server key {id} does not match its interned name"));
            }
        }
        let in_range = |col: &[u32], len: usize, what: &str| -> Result<(), String> {
            match col.iter().find(|&&id| id as usize >= len) {
                Some(&bad) => Err(format!("{what} id {bad} out of range (table len {len})")),
                None => Ok(()),
            }
        };
        // The id columns are swept whole, side by side ([`par`]), for
        // each one's first out-of-range id; the last two (referrers,
        // redirect targets) are out of range only when not `NO_ID`.
        let c = &self.cols;
        let limits = [
            self.clients.len(),
            n_servers,
            self.hosts.len(),
            self.ips.len(),
            self.files.len(),
            self.paths.len(),
            self.params.len(),
            self.user_agents.len(),
            n_servers,
            n_servers,
        ];
        let columns: Vec<_> = c.id_columns().into_iter().zip(limits).enumerate().collect();
        let flagged = par::par_map(&columns, |&(i, (col, len))| {
            let optional = i >= 8;
            col.iter()
                .position(|&id| id as usize >= len && !(optional && id == NO_ID))
        });
        // Reported in the order the checks have always run: a bad
        // client id, a bad server id, then the smallest record index
        // holding any other out-of-range id.
        let named = ["client", "server"];
        for (what, (at, &(_, (col, len)))) in named.into_iter().zip(flagged.iter().zip(&columns)) {
            if let Some(&bad) = at.and_then(|i| col.get(i)) {
                return Err(format!("{what} id {bad} out of range (table len {len})"));
            }
        }
        if let Some(i) = flagged.iter().skip(named.len()).flatten().min() {
            return Err(format!("record {i} has an out-of-range interned id"));
        }
        let tables: [(&str, &Vec<Vec<u32>>, usize, bool); 5] = [
            ("clients", &self.server_clients, self.clients.len(), true),
            ("files", &self.server_files, self.files.len(), true),
            ("ips", &self.server_ips, self.ips.len(), true),
            ("records", &self.server_records, c.len(), false),
            ("referrers", &self.server_referrers, n_servers, true),
        ];
        // Each table checked on its own thread; the first failure in
        // table order is the verdict, as when they ran one by one.
        let checked = par::par_map(&tables, |&(what, table, id_range, sorted)| {
            if table.len() != n_servers {
                return Err(format!(
                    "{} {what} postings for {n_servers} servers",
                    table.len()
                ));
            }
            for (server, posting) in table.iter().enumerate() {
                in_range(posting, id_range, what)?;
                if sorted && !posting.is_sorted_by(|a, b| a < b) {
                    return Err(format!(
                        "{what} posting of server {server} is not sorted+deduplicated"
                    ));
                }
            }
            Ok(())
        });
        checked.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(client: &str, host: &str, ip: &str, uri: &str) -> HttpRecord {
        HttpRecord::new(0, client, host, ip, uri)
    }

    #[test]
    fn aggregation_merges_subdomains() {
        let ds = TraceDataset::from_records(vec![
            rec("c1", "a.x.com", "1.1.1.1", "/f.php"),
            rec("c2", "b.x.com", "1.1.1.2", "/g.php"),
        ]);
        assert_eq!(ds.server_count(), 1);
        let sid = ds.server_id("x.com").unwrap();
        assert_eq!(ds.clients_of(sid), &[0, 1]);
        assert_eq!(ds.ips_of(sid).len(), 2);
    }

    #[test]
    fn ip_hosts_are_separate_servers() {
        let ds = TraceDataset::from_records(vec![
            rec("c1", "1.2.3.4", "1.2.3.4", "/f.php"),
            rec("c1", "x.com", "1.2.3.4", "/f.php"),
        ]);
        assert_eq!(ds.server_count(), 2);
        assert!(ds
            .server_key(ds.server_id("1.2.3.4").unwrap())
            .unwrap()
            .is_ip());
    }

    #[test]
    fn directory_requests_have_no_file() {
        let ds = TraceDataset::from_records(vec![
            rec("c1", "x.com", "1.1.1.1", "/dir/"),
            rec("c1", "x.com", "1.1.1.1", "/dir/page.html"),
        ]);
        let sid = ds.server_id("x.com").unwrap();
        assert_eq!(ds.files_of(sid).len(), 1);
        assert_eq!(ds.file_count(), 1);
    }

    #[test]
    fn referrer_index_aggregates() {
        let ds = TraceDataset::from_records(vec![
            rec("c1", "x.com", "1.1.1.1", "/a").with_referrer("www.landing.com"),
            rec("c2", "x.com", "1.1.1.1", "/b").with_referrer("img.landing.com"),
        ]);
        let sid = ds.server_id("x.com").unwrap();
        let land = ds.server_id("landing.com").unwrap();
        assert_eq!(ds.referrers_of(sid), &[land]);
    }

    #[test]
    fn redirect_majority_wins() {
        let ds = TraceDataset::from_records(vec![
            rec("c1", "hop.com", "1.1.1.1", "/").with_redirect_to("a.com"),
            rec("c2", "hop.com", "1.1.1.1", "/").with_redirect_to("b.com"),
            rec("c3", "hop.com", "1.1.1.1", "/").with_redirect_to("b.com"),
        ]);
        let hop = ds.server_id("hop.com").unwrap();
        let b = ds.server_id("b.com").unwrap();
        assert_eq!(ds.redirect_of(hop), Some(b));
    }

    #[test]
    fn self_redirect_ignored() {
        let ds = TraceDataset::from_records(vec![
            rec("c1", "hop.com", "1.1.1.1", "/").with_redirect_to("www.hop.com")
        ]);
        let hop = ds.server_id("hop.com").unwrap();
        assert_eq!(ds.redirect_of(hop), None);
    }

    #[test]
    fn error_rate() {
        let ds = TraceDataset::from_records(vec![
            rec("c1", "x.com", "1.1.1.1", "/a").with_status(200),
            rec("c1", "x.com", "1.1.1.1", "/b").with_status(404),
            rec("c1", "x.com", "1.1.1.1", "/c").with_status(500),
            rec("c1", "x.com", "1.1.1.1", "/d").with_status(0),
        ]);
        let sid = ds.server_id("x.com").unwrap();
        assert!((ds.error_rate_of(sid) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset() {
        let ds = TraceDataset::from_records(Vec::<HttpRecord>::new());
        assert_eq!(ds.server_count(), 0);
        assert_eq!(ds.client_count(), 0);
        assert_eq!(ds.record_count(), 0);
        assert_eq!(ds.file_count(), 0);
        assert!(ds.validate().is_ok());
    }

    #[test]
    fn record_fields_interned_consistently() {
        let ds =
            TraceDataset::from_records(vec![
                rec("c1", "x.com", "1.1.1.1", "/p/a.php?x=1&y=2").with_user_agent("UA-1")
            ]);
        let r = ds.record(0).unwrap();
        assert_eq!(ds.file_name(r.file), "a.php");
        assert_eq!(ds.path_name(r.path), "/p/a.php");
        assert_eq!(ds.param_pattern_name(r.param_pattern), "x=[]&y=[]");
        assert_eq!(ds.user_agent_name(r.user_agent), "UA-1");
        assert_eq!(ds.ip_name(r.ip), "1.1.1.1");
    }

    #[test]
    fn validate_accepts_real_datasets() {
        let ds = TraceDataset::from_records(vec![
            rec("c1", "a.x.com", "1.1.1.1", "/f.php").with_referrer("r.com"),
            rec("c2", "b.y.com", "1.1.1.2", "/g/").with_redirect_to("z.com"),
        ]);
        assert!(ds.validate().is_ok());
        assert!(ds.heap_bytes() > 0);
    }

    #[test]
    fn validate_reports_the_smallest_bad_record_across_columns() {
        let ds = TraceDataset::from_records(vec![
            rec("c1", "a.x.com", "1.1.1.1", "/f.php").with_referrer("r.com"),
            rec("c2", "b.y.com", "1.1.1.2", "/g/"),
            rec("c3", "b.y.com", "1.1.1.3", "/h.gif").with_redirect_to("z.com"),
        ]);
        let c = &ds.cols;
        let with = |patch: &[(usize, usize, u32)]| {
            let mut ids: Vec<Vec<u32>> = c.id_columns().map(<[u32]>::to_vec).to_vec();
            for &(column, record, id) in patch {
                ids[column][record] = id;
            }
            let redirects = ids.pop().unwrap();
            let mut bad = ds.clone();
            bad.cols = RecordColumns::from_wire_columns(
                c.timestamps().to_vec(),
                ids.try_into().unwrap(),
                c.statuses().to_vec(),
                c.resp_bytes().to_vec(),
                redirects,
            )
            .unwrap();
            bad.validate()
        };
        assert_eq!(with(&[]), Ok(()));
        // A late column's early record beats an early column's late one,
        // and a redirect past the server table counts like any id.
        let record = |i: usize| Err(format!("record {i} has an out-of-range interned id"));
        assert_eq!(with(&[(2, 2, 99), (7, 1, 99)]), record(1));
        assert_eq!(with(&[(4, 2, 99), (9, 0, 99)]), record(0));
        assert_eq!(with(&[(9, 1, NO_ID)]), Ok(()));
        // The client and server columns are checked first and by value.
        assert_eq!(
            with(&[(7, 0, 99), (1, 2, 77)]),
            Err("server id 77 out of range (table len 4)".to_owned())
        );
    }

    #[test]
    fn wire_round_trip_preserves_everything() {
        let ds = TraceDataset::from_records(vec![
            rec("c1", "a.x.com", "1.1.1.1", "/f.php?k=1").with_referrer("r.com"),
            rec("c2", "1.2.3.4", "1.2.3.4", "/dir/").with_status(404),
        ]);
        let bytes = smash_support::wire::encode(&ds);
        let back: TraceDataset = smash_support::wire::decode(&bytes).unwrap();
        assert!(back.validate().is_ok());
        assert_eq!(back.fingerprint(), ds.fingerprint());
        assert_eq!(back.record_count(), ds.record_count());
        let sid = back.server_id("x.com").unwrap();
        assert_eq!(
            back.clients_of(sid),
            ds.clients_of(ds.server_id("x.com").unwrap())
        );
    }

    #[test]
    fn fingerprint_is_the_hash_of_the_wire_form_and_has_not_moved() {
        let ds = TraceDataset::from_records(vec![
            rec("c1", "a.x.com", "1.1.1.1", "/f.php?k=1").with_referrer("r.com"),
            HttpRecord::new(9, "c2", "1.2.3.4", "1.2.3.4", "/dir/").with_status(404),
            HttpRecord::new(11, "c2", "b.x.com", "1.1.1.2", "/g.gif").with_redirect_to("z.com"),
        ]);
        // Streamed in pieces, it is still FNV-1a over the tables, the
        // server keys and the columns as `wire` lays them out whole…
        let mut whole = Vec::new();
        for table in ds.tables() {
            table.wire(&mut whole);
        }
        ds.server_keys.wire(&mut whole);
        ds.cols.wire(&mut whole);
        let hashed = smash_support::ckpt::fnv1a(&whole);
        assert_eq!(
            ds.fingerprint(),
            smash_support::ckpt::fingerprint_string(hashed)
        );
        // …and pinned, so a layout or codec change that moves it cannot
        // land unnoticed.
        assert_eq!(ds.fingerprint(), "fnv1a:c580ce26925ce738");
    }

    #[test]
    fn abandoned_appender_still_seals_its_postings() {
        // Out-of-order clients into an existing server, then the
        // appender is dropped without ceremony (an early `?` return).
        let mut ds = TraceDataset::from_records(vec![rec("c9", "x.com", "1.1.1.1", "/a")]);
        {
            let mut appender = ds.appender();
            appender.push(&rec("c5", "x.com", "1.1.1.1", "/a"));
            appender.push(&rec("c9", "x.com", "1.1.1.1", "/b"));
            appender.push(&rec("c1", "y.com", "1.1.1.2", "/c"));
        }
        assert!(ds.validate().is_ok(), "{:?}", ds.validate());
        assert_eq!(ds.record_count(), 4);
        assert_eq!(ds.clients_of(ds.server_id("x.com").unwrap()), &[0, 1]);
    }
}
