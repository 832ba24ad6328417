//! Columnar, interned trace datasets with the inverted indexes the SMASH
//! pipeline consumes (the in-memory half of DESIGN.md §12).

use crate::columns::{RecordColumns, NO_ID};
use crate::interner::Interner;
use crate::record::{HttpRecord, RecordFields};
use crate::server::ServerKey;
use crate::uri::{parameter_pattern, uri_file, uri_path};
use smash_support::csr::Csr;
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
/// file ids, IP ids, referrer ids, record indexes) are a function of the
/// columns, rebuilt from them whenever an append ends, and handed out as
/// borrowed slices — the dimension builders, the LSH
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
    ips: Interner,
    files: Interner,
    paths: Interner,
    params: Interner,
    user_agents: Interner,
    cols: RecordColumns,
    // Postings: one row per server id, every row strictly ascending
    // (`server_records` in record order, which is ascending).
    server_clients: Csr,
    server_files: Csr,
    server_ips: Csr,
    server_records: Csr,
    server_referrers: Csr,
}

impl ToWire for TraceDataset {
    fn wire(&self, out: &mut Vec<u8>) {
        for section in self.wire_sections() {
            section.wire(out);
        }
    }
}

/// The sequential reader: every section of the wire form decoded
/// inline, in wire order — the decoders the day loader runs frame by
/// frame (DESIGN.md §12.4) — and the postings built from the columns.
/// Like every decoded dataset, it is [`validate`](TraceDataset::validate)d
/// before it is mined.
impl FromWire for TraceDataset {
    fn from_wire(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut ds = assemble(SECTIONS.iter().map(|section| section.decode(r)))?;
        ds.build_postings();
        Ok(ds)
    }
}

/// One section of a dataset's wire form: the unit a day file frames
/// and the loader decodes on its own.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Section {
    /// A symbol table ([`Interner`]).
    Table,
    /// The `u64` timestamp column.
    Wide,
    /// A `u32` column.
    Cells,
    /// The `u16` status column.
    Narrow,
}

/// The 19 sections of a dataset payload, in wire order: the seven
/// symbol tables and the twelve record columns. The postings are not
/// among them: they are a function of the columns (DESIGN.md §12.3).
pub(crate) const SECTIONS: [Section; 19] = {
    use Section::{Cells, Narrow, Table, Wide};
    [
        Table, Table, Table, Table, Table, Table, Table, //
        Wide, Cells, Cells, Cells, Cells, Cells, Cells, Cells, Cells, Narrow, Cells, Cells,
    ]
};

/// A decoded [`Section`].
#[derive(Debug)]
pub(crate) enum Decoded {
    Table(Interner),
    Wide(Vec<u64>),
    Cells(Vec<u32>),
    Narrow(Vec<u16>),
}

impl Section {
    /// Decodes one section from the front of `r`.
    fn decode(self, r: &mut Reader<'_>) -> Result<Decoded, WireError> {
        Ok(match self {
            Section::Table => Decoded::Table(Interner::from_wire(r)?),
            Section::Wide => Decoded::Wide(Vec::from_wire(r)?),
            Section::Cells => Decoded::Cells(Vec::from_wire(r)?),
            Section::Narrow => Decoded::Narrow(Vec::from_wire(r)?),
        })
    }

    /// Decodes one section that is all of `bytes`, trailing bytes
    /// refused ([`wire::decode`]).
    pub(crate) fn decode_all(self, bytes: &[u8]) -> Result<Decoded, WireError> {
        Ok(match self {
            Section::Table => Decoded::Table(wire::decode(bytes)?),
            Section::Wide => Decoded::Wide(wire::decode(bytes)?),
            Section::Cells => Decoded::Cells(wire::decode(bytes)?),
            Section::Narrow => Decoded::Narrow(wire::decode(bytes)?),
        })
    }
}

/// Builds a dataset from its sections' decode results in wire order.
/// The first error in that order is the verdict, and the record
/// columns' length check comes after the last column — exactly where a
/// reader going front to back meets each. The dataset has no postings
/// yet: the caller builds them ([`TraceDataset::build_postings`]).
pub(crate) fn assemble(
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
        ips: take!(Table),
        files: take!(Table),
        paths: take!(Table),
        params: take!(Table),
        user_agents: take!(Table),
        cols: {
            let timestamps = take!(Wide);
            let mut ids: [Vec<u32>; 8] = Default::default();
            for id in &mut ids {
                *id = take!(Cells);
            }
            let statuses = take!(Narrow);
            let resp_bytes = take!(Cells);
            let redirects = take!(Cells);
            RecordColumns::from_wire_columns(timestamps, ids, statuses, resp_bytes, redirects)?
        },
        ..TraceDataset::default()
    })
}

/// An in-progress append: records go in through
/// [`push_fields`](Self::push_fields) (or [`push`](Self::push), or a
/// whole decoded chunk at a time from the JSONL reader) and land in the
/// columns only; dropping the appender rebuilds every posting table
/// from the columns (DESIGN.md §12.3). It holds the dataset's one
/// mutable borrow while the postings lag the columns, so no reader sees
/// the intermediate state — even when the feeding loop bails out early
/// or unwinds.
#[derive(Debug)]
pub struct Appender<'a> {
    ds: &'a mut TraceDataset,
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

    /// Interns one record into the arena's columns. Only the first sight
    /// of a symbol allocates; a record whose strings are all known costs
    /// hash lookups and column pushes.
    pub fn push_fields(&mut self, r: &RecordFields<'_>) {
        let server = self.server_of(&r.host);
        let referrer = r.referrer.as_deref().map(|h| self.server_of(h));
        let redirect_to = r.redirect_to.as_deref().map(|h| self.server_of(h));
        let ip = self.ip_of(r.server_ip);
        let ds = &mut *self.ds;
        let rec = CompactRecord {
            timestamp: r.timestamp,
            client: ds.clients.intern(&r.client),
            server,
            ip,
            file: ds.files.intern(uri_file(&r.uri)),
            path: ds.paths.intern(uri_path(&r.uri)),
            param_pattern: intern_param_pattern(&mut ds.params, &r.uri),
            user_agent: ds.user_agents.intern(&r.user_agent),
            referrer,
            status: r.status,
            resp_bytes: r.resp_bytes,
            redirect_to,
        };
        ds.cols.push(rec);
    }

    /// Merges one decoded chunk, whose records follow every record
    /// already pushed. The chunk's symbols are interned table by table
    /// in its local-id order — which is the order the chunk first saw
    /// them — so every table issues its new ids exactly as pushing the
    /// chunk's records one by one would have; then the rows, remapped
    /// to those ids, are pushed onto the columns.
    pub(crate) fn merge_chunk(&mut self, chunk: &ChunkArena) {
        let servers: Vec<ServerId> = chunk.names.iter().map(|(_, h)| self.server_of(h)).collect();
        let ips: Vec<u32> = chunk.ips.iter().map(|&ip| self.ip_of(ip)).collect();
        let ds = &mut *self.ds;
        let remap = |local: &Interner, global: &mut Interner| -> Vec<u32> {
            local.iter().map(|(_, s)| global.intern(s)).collect()
        };
        let clients = remap(&chunk.clients, &mut ds.clients);
        let files = remap(&chunk.files, &mut ds.files);
        let paths = remap(&chunk.paths, &mut ds.paths);
        let params = remap(&chunk.params, &mut ds.params);
        let user_agents = remap(&chunk.user_agents, &mut ds.user_agents);
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
                ds.cols.push(rec);
            }
        }
    }
}

impl Drop for Appender<'_> {
    fn drop(&mut self) {
        self.ds.build_postings();
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
    /// the column arena, so a lazy record iterator (the streamed
    /// ISP-scale generator) is never buffered in row form, and the
    /// postings are rebuilt from the columns once, at the end.
    /// Interning is first-seen order and the postings are a function of
    /// the columns, so a trace appended in any number of chunks is
    /// byte-identical (wire form, [`fingerprint`](Self::fingerprint)) to
    /// one-shot [`from_records`](Self::from_records).
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
            ds: self,
            server_memo: HashMap::new(),
            ip_memo: HashMap::new(),
        }
    }

    fn intern_server(&mut self, host: &str) -> ServerId {
        self.servers.intern(&ServerKey::from_host(host).to_string())
    }

    /// Rebuilds the five posting tables from the columns, side by side
    /// ([`par`]), each one [`Csr::group`] of a column by the server
    /// column over every interned server. Record indexes are dealt in
    /// record order, so they ascend as they land; clients, files (minus
    /// directory requests, whose file is `""`), IPs and referrers then
    /// drop their repeats and sort row by row. Every buffer is sized by
    /// a column's or a symbol table's length, never by an id, so the
    /// day loader runs it on what it read — once `validate` has passed
    /// the columns.
    pub(crate) fn build_postings(&mut self) {
        // lint:allow(index): an array pattern, not an indexing site
        let [clients, servers, ips, files, _, _, _, referrers, _] = self.cols.id_columns();
        let n = self.servers.len();
        // The tables in `postings()` order: the column each one groups
        // — `None` for the record index — the one id it leaves out (a
        // directory request's `""` file, a missing referrer) and the
        // length of the table its ids index.
        let jobs = [
            (Some(clients), None, self.clients.len()),
            (Some(files), self.files.get(""), self.files.len()),
            (Some(ips), None, self.ips.len()),
            (None, None, 0),
            (Some(referrers), Some(NO_ID), n),
        ];
        let built = par::par_map(&jobs, |&(column, skip, range)| {
            let by_server = servers.iter().copied();
            // Past `u32` offsets — more records than `u32` record
            // indexes can address — a table is left empty, which
            // `validate` refuses by the record count, rather than
            // panicking in a drop.
            let Some(ids) = column else {
                return Csr::group(n, by_server.zip(0..)).unwrap_or_default();
            };
            let pairs = by_server.zip(ids.iter().copied());
            let kept = pairs.filter(|&(_, id)| Some(id) != skip);
            let mut postings = Csr::group(n, kept).unwrap_or_default();
            postings.dedup_rows(range);
            postings
        });
        let tables = [
            &mut self.server_clients,
            &mut self.server_files,
            &mut self.server_ips,
            &mut self.server_records,
            &mut self.server_referrers,
        ];
        for (table, postings) in tables.into_iter().zip(built) {
            *table = postings;
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

    /// The seven symbol tables, in wire order.
    fn tables(&self) -> [&Interner; 7] {
        [
            &self.clients,
            &self.servers,
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
        let postings: u64 = self
            .postings()
            .iter()
            .map(|table| table.incidences() as u64 * 4)
            .sum();
        let tables: u64 = self.tables().iter().map(|t| t.heap_bytes()).sum();
        self.cols.payload_bytes() + postings + tables
    }

    /// FNV-1a fingerprint of the dataset (`fnv1a:<16 hex digits>`).
    ///
    /// Hashes the wire form — the symbol tables and the column arena,
    /// what a day file stores — in one streaming pass through a buffer
    /// of a few KiB: no serialized copy of the dataset is materialized.
    /// The postings are a function of the columns and the server keys
    /// are the server names parsed back, so neither is hashed. A day
    /// file's round trip is checked against it
    /// (`load_day(save_day(ds))`).
    pub fn fingerprint(&self) -> String {
        use smash_support::ckpt::{fingerprint_string, Fnv1a};
        let mut h = Fnv1a::new();
        let mut buf = Vec::new();
        let mut sink = |piece: &[u8]| h.write(piece);
        for table in self.tables() {
            table.wire_pieces(&mut buf, &mut sink);
        }
        self.cols.wire_pieces(&mut buf, &mut sink);
        fingerprint_string(h.finish())
    }

    /// The [`ServerKey`] of a server id — its name parsed back, which
    /// [`validate`](Self::validate) guarantees is the key it was
    /// interned under — or `None` for an id this dataset never interned.
    pub fn server_key(&self, id: ServerId) -> Option<ServerKey> {
        self.servers.resolve_checked(id).map(ServerKey::from_host)
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
        self.server_clients.row(server as usize)
    }

    /// Sorted, deduplicated non-empty URI-file ids requested on `server`.
    /// A rogue id yields the empty slice rather than a panic.
    pub fn files_of(&self, server: ServerId) -> &[u32] {
        self.server_files.row(server as usize)
    }

    /// Sorted, deduplicated IP ids `server` resolved to. A rogue id
    /// yields the empty slice rather than a panic.
    pub fn ips_of(&self, server: ServerId) -> &[u32] {
        self.server_ips.row(server as usize)
    }

    /// Arena indexes (in record order) of the requests to `server`.
    pub fn record_ids_of(&self, server: ServerId) -> &[u32] {
        self.server_records.row(server as usize)
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
        self.server_referrers.row(server as usize)
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
    /// (DESIGN.md §12): the record count fits `u32` record indexes,
    /// every server name is its own aggregate (the [`ServerKey`] of a
    /// host, as [`server_key`](Self::server_key) derives it back), and
    /// column ids resolve in their symbol tables. The postings are not
    /// checked: they are built from the columns, never read (§12.3).
    /// The `SMSHCOLS` loader runs this on every decoded day, so a file
    /// that checksums clean but lies structurally is still rejected.
    pub fn validate(&self) -> Result<(), String> {
        let c = &self.cols;
        if u32::try_from(c.len()).is_err() {
            return Err(format!("{} records overflow u32 record indexes", c.len()));
        }
        let n_servers = self.servers.len();
        for (id, name) in self.servers.iter() {
            if ServerKey::from_host(name).to_string() != name {
                return Err(format!("server {id} is not named by its aggregate"));
            }
        }
        // The id columns are swept whole, side by side ([`par`]), for
        // each one's first out-of-range id; the last two (referrers,
        // redirect targets) are out of range only when not `NO_ID`.
        let limits = [
            self.clients.len(),
            n_servers,
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
            let optional = i >= 7;
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
        match flagged.iter().skip(named.len()).flatten().min() {
            Some(i) => Err(format!("record {i} has an out-of-range interned id")),
            None => Ok(()),
        }
    }

    /// The 19 sections of the wire form, in wire order ([`SECTIONS`]):
    /// what a day file frames one by one.
    pub(crate) fn wire_sections(&self) -> impl Iterator<Item = &dyn ToWire> {
        let tables = self.tables().into_iter().map(|t| t as &dyn ToWire);
        tables.chain(self.cols.wire_columns())
    }

    /// The five posting tables.
    fn postings(&self) -> [&Csr; 5] {
        [
            &self.server_clients,
            &self.server_files,
            &self.server_ips,
            &self.server_records,
            &self.server_referrers,
        ]
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
    fn a_records_server_key_is_the_key_of_its_raw_host() {
        let hosts = [
            "10.0.0.1",
            "10.0.0.1.",
            "WWW.Shop.COM",
            "shop.com.",
            "img.shop.com",
            "A.B.Co.UK.",
            "192.168.001.7",
            "localhost",
            "",
        ];
        let ds = TraceDataset::from_records(
            hosts
                .iter()
                .map(|&host| rec("c1", host, "1.1.1.1", "/").with_referrer(host)),
        );
        assert!(ds.validate().is_ok(), "{:?}", ds.validate());
        for (r, &host) in ds.records().zip(&hosts) {
            assert_eq!(ds.server_key(r.server), Some(ServerKey::from_host(host)));
            assert_eq!(r.referrer, Some(r.server));
        }
        assert_eq!(ds.server_key(ds.server_count() as ServerId), None);
    }

    #[test]
    fn a_server_name_that_is_not_its_own_aggregate_is_refused() {
        let mut ds = TraceDataset::from_records(vec![
            rec("c1", "a.x.com", "1.1.1.1", "/f.php"),
            rec("c2", "1.2.3.4", "1.2.3.4", "/"),
        ]);
        assert!(ds.validate().is_ok());
        for lie in ["WWW.X.COM", "www.x.com", "x.com.", "01.2.3.4"] {
            ds.servers = Interner::new();
            ds.servers.intern("x.com");
            ds.servers.intern(lie);
            assert_eq!(
                ds.validate(),
                Err("server 1 is not named by its aggregate".to_owned()),
                "{lie}"
            );
        }
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
        assert_eq!(with(&[(2, 2, 99), (6, 1, 99)]), record(1));
        assert_eq!(with(&[(3, 2, 99), (8, 0, 99)]), record(0));
        assert_eq!(with(&[(8, 1, NO_ID)]), Ok(()));
        // The client and server columns are checked first and by value.
        assert_eq!(
            with(&[(6, 0, 99), (1, 2, 77)]),
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
        // Streamed in pieces, it is still FNV-1a over the wire form —
        // the tables and the columns — laid out whole…
        let mut whole = Vec::new();
        for table in ds.tables() {
            table.wire(&mut whole);
        }
        ds.cols.wire(&mut whole);
        assert_eq!(whole, smash_support::wire::encode(&ds));
        let hashed = smash_support::ckpt::fnv1a(&whole);
        assert_eq!(
            ds.fingerprint(),
            smash_support::ckpt::fingerprint_string(hashed)
        );
        // …and pinned, so a layout or codec change that moves it cannot
        // land unnoticed.
        assert_eq!(ds.fingerprint(), "fnv1a:3cbe524a9b2ba0e8");
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
