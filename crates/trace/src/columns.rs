//! The columnar record arena: one parallel vector per record field.
//!
//! [`RecordColumns`] is the storage half of the data-layout contract
//! (DESIGN.md §12). Instead of an array of row structs, every field of
//! every record lives in its own dense column vector, indexed by record
//! position. All string-valued fields are interned `u32` symbols (the
//! tables live in [`crate::TraceDataset`]); optional id columns use the
//! [`NO_ID`] sentinel instead of `Option`, so every column is a flat,
//! fixed-width, little-endian-serializable array — the same shape the
//! `SMSHCOLS` on-disk day format stores byte for byte.
//!
//! Rows are only ever *assembled on demand*: [`RecordColumns::get`]
//! gathers one [`CompactRecord`] view from the columns. Ingest pushes
//! straight into the columns ([`RecordColumns::push`]), so streamed
//! scenarios never materialize a row-struct buffer.

use crate::dataset::CompactRecord;
use smash_support::wire::{self, ToWire, WireError};

/// Sentinel in optional id columns (`referrers`, `redirects`) meaning
/// "no value". Interners can never issue it: they refuse to allocate
/// more than `u32::MAX` ids, so the last representable id stays free.
pub const NO_ID: u32 = u32::MAX;

fn opt_to_col(v: Option<u32>) -> u32 {
    v.unwrap_or(NO_ID)
}

fn col_to_opt(v: u32) -> Option<u32> {
    (v != NO_ID).then_some(v)
}

/// Column-per-field storage of interned HTTP records.
///
/// Invariant: every column has the same length (the record count);
/// the day decoder enforces it, so a decoded value is never ragged.
///
/// # Example
///
/// ```
/// use smash_trace::columns::RecordColumns;
/// use smash_trace::CompactRecord;
///
/// let mut cols = RecordColumns::default();
/// cols.push(CompactRecord {
///     timestamp: 7,
///     client: 0,
///     server: 0,
///     ip: 0,
///     file: 0,
///     path: 0,
///     param_pattern: 0,
///     user_agent: 0,
///     referrer: None,
///     status: 200,
///     resp_bytes: 512,
///     redirect_to: None,
/// });
/// assert_eq!(cols.len(), 1);
/// assert_eq!(cols.get(0).unwrap().timestamp, 7);
/// assert_eq!(cols.get(1), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordColumns {
    timestamps: Vec<u64>,
    clients: Vec<u32>,
    servers: Vec<u32>,
    ips: Vec<u32>,
    files: Vec<u32>,
    paths: Vec<u32>,
    param_patterns: Vec<u32>,
    user_agents: Vec<u32>,
    referrers: Vec<u32>,
    statuses: Vec<u16>,
    resp_bytes: Vec<u32>,
    redirects: Vec<u32>,
}

/// Payload bytes of one record across all columns: one `u64`, one
/// `u16`, and ten `u32` cells.
pub const ROW_BYTES: u64 = 8 + 2 + 10 * 4;

impl RecordColumns {
    /// Number of records stored.
    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    /// `true` when no record has been pushed.
    pub fn is_empty(&self) -> bool {
        self.timestamps.is_empty()
    }

    /// Appends one record, splitting it into the columns.
    pub fn push(&mut self, r: CompactRecord) {
        self.timestamps.push(r.timestamp);
        self.clients.push(r.client);
        self.servers.push(r.server);
        self.ips.push(r.ip);
        self.files.push(r.file);
        self.paths.push(r.path);
        self.param_patterns.push(r.param_pattern);
        self.user_agents.push(r.user_agent);
        self.referrers.push(opt_to_col(r.referrer));
        self.statuses.push(r.status);
        self.resp_bytes.push(r.resp_bytes);
        self.redirects.push(opt_to_col(r.redirect_to));
    }

    /// Assembles the row view of record `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<CompactRecord> {
        Some(CompactRecord {
            timestamp: *self.timestamps.get(i)?,
            client: *self.clients.get(i)?,
            server: *self.servers.get(i)?,
            ip: *self.ips.get(i)?,
            file: *self.files.get(i)?,
            path: *self.paths.get(i)?,
            param_pattern: *self.param_patterns.get(i)?,
            user_agent: *self.user_agents.get(i)?,
            referrer: col_to_opt(*self.referrers.get(i)?),
            status: *self.statuses.get(i)?,
            resp_bytes: *self.resp_bytes.get(i)?,
            redirect_to: col_to_opt(*self.redirects.get(i)?),
        })
    }

    /// Iterates assembled row views in record order.
    pub fn iter(&self) -> impl Iterator<Item = CompactRecord> + '_ {
        (0..self.len()).filter_map(|i| self.get(i))
    }

    /// The timestamp column (seconds since trace start, record order).
    pub fn timestamps(&self) -> &[u64] {
        &self.timestamps
    }

    /// The interned client-id column.
    pub fn clients(&self) -> &[u32] {
        &self.clients
    }

    /// The aggregated server-id column.
    pub fn servers(&self) -> &[u32] {
        &self.servers
    }

    /// The HTTP status column (`0` = no response observed).
    pub fn statuses(&self) -> &[u16] {
        &self.statuses
    }

    /// The response-size column (bytes; `0` = unknown).
    pub fn resp_bytes(&self) -> &[u32] {
        &self.resp_bytes
    }

    /// Payload bytes the columns hold: `len() · ROW_BYTES`. Exact by
    /// construction — every cell is fixed width — which is what makes
    /// the arena's accounting a count rather than a per-record heap
    /// estimate.
    pub fn payload_bytes(&self) -> u64 {
        self.len() as u64 * ROW_BYTES
    }
}

/// The wire form is the columns in this order, each a `Vec` (a count,
/// then its cells), written whole, a column at a time, or a bounded
/// piece at a time. A day file frames each column as a section of its
/// own; the decoder hands them back through
/// [`RecordColumns::from_wire_columns`].
macro_rules! wire_columns {
    ($($column:ident),+ $(,)?) => {
        impl ToWire for RecordColumns {
            fn wire(&self, out: &mut Vec<u8>) {
                $( self.$column.wire(out); )+
            }
        }

        impl RecordColumns {
            /// The twelve columns in wire order, each its own section.
            pub(crate) fn wire_columns(&self) -> [&dyn ToWire; 12] {
                [$( &self.$column ),+]
            }

            /// The wire form handed to `sink` through `buf`, never
            /// whole ([`wire::wire_pieces`] per column).
            pub(crate) fn wire_pieces(&self, buf: &mut Vec<u8>, sink: &mut impl FnMut(&[u8])) {
                $( wire::wire_pieces(&self.$column, buf, sink); )+
            }
        }
    };
}

wire_columns!(
    timestamps,
    clients,
    servers,
    ips,
    files,
    paths,
    param_patterns,
    user_agents,
    referrers,
    statuses,
    resp_bytes,
    redirects,
);

impl RecordColumns {
    /// The arena from its twelve decoded columns in wire order (the
    /// eight id columns from `clients` to `referrers` as `ids`), refusing
    /// ragged lengths — a corrupted but checksum-colliding envelope must
    /// not produce a half-readable arena.
    pub(crate) fn from_wire_columns(
        timestamps: Vec<u64>,
        ids: [Vec<u32>; 8],
        statuses: Vec<u16>,
        resp_bytes: Vec<u32>,
        redirects: Vec<u32>,
    ) -> Result<Self, WireError> {
        let n = timestamps.len();
        let ragged = ids
            .iter()
            .chain([&resp_bytes, &redirects])
            .any(|c| c.len() != n)
            || statuses.len() != n;
        if ragged {
            return Err(WireError("ragged record columns".to_owned()));
        }
        // lint:allow(index): an array pattern, not an indexing site
        let [clients, servers, ips, files, paths, param_patterns, user_agents, referrers] = ids;
        Ok(RecordColumns {
            timestamps,
            clients,
            servers,
            ips,
            files,
            paths,
            param_patterns,
            user_agents,
            referrers,
            statuses,
            resp_bytes,
            redirects,
        })
    }

    /// The nine id columns in wire order: clients, servers, IPs,
    /// files, paths, parameter patterns, user agents, then the two
    /// optional server ids — referrers and redirect targets — which
    /// hold [`NO_ID`] where a record has none.
    pub(crate) fn id_columns(&self) -> [&[u32]; 9] {
        [
            &self.clients,
            &self.servers,
            &self.ips,
            &self.files,
            &self.paths,
            &self.param_patterns,
            &self.user_agents,
            &self.referrers,
            &self.redirects,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: u64) -> CompactRecord {
        CompactRecord {
            timestamp: i,
            client: i as u32,
            server: 0,
            ip: 2,
            file: 3,
            path: 4,
            param_pattern: 5,
            user_agent: 6,
            referrer: i.is_multiple_of(2).then_some(9),
            status: 200,
            resp_bytes: 17,
            redirect_to: None,
        }
    }

    #[test]
    fn push_get_round_trips_rows() {
        let mut cols = RecordColumns::default();
        for i in 0..5 {
            cols.push(sample(i));
        }
        assert_eq!(cols.len(), 5);
        for i in 0..5u64 {
            assert_eq!(cols.get(i as usize).unwrap(), sample(i));
        }
        assert_eq!(cols.get(5), None);
        let rows: Vec<CompactRecord> = cols.iter().collect();
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn wire_form_is_the_columns_in_order() {
        let mut cols = RecordColumns::default();
        for i in 0..9 {
            cols.push(sample(i));
        }
        let bytes = wire::encode(&cols);
        let mut whole = wire::encode(&cols.timestamps);
        let ids = [
            &cols.clients,
            &cols.servers,
            &cols.ips,
            &cols.files,
            &cols.paths,
            &cols.param_patterns,
            &cols.user_agents,
            &cols.referrers,
        ];
        for column in ids {
            column.wire(&mut whole);
        }
        cols.statuses.wire(&mut whole);
        cols.resp_bytes.wire(&mut whole);
        cols.redirects.wire(&mut whole);
        assert_eq!(bytes, whole);
        let (mut buf, mut pieces) = (Vec::new(), Vec::new());
        cols.wire_pieces(&mut buf, &mut |piece| pieces.extend_from_slice(piece));
        assert_eq!(pieces, bytes);
        let back = RecordColumns::from_wire_columns(
            cols.timestamps.clone(),
            ids.map(Vec::clone),
            cols.statuses.clone(),
            cols.resp_bytes.clone(),
            cols.redirects.clone(),
        );
        assert_eq!(back, Ok(cols));
    }

    #[test]
    fn ragged_columns_rejected() {
        let column = |n: usize| vec![0u32; n];
        let ids = || std::array::from_fn(|_| column(1));
        let ragged = [
            RecordColumns::from_wire_columns(vec![0, 99], ids(), vec![0], column(1), column(1)),
            RecordColumns::from_wire_columns(vec![0], ids(), vec![], column(1), column(1)),
            RecordColumns::from_wire_columns(vec![0], ids(), vec![0], column(1), column(2)),
        ];
        for cols in ragged {
            assert_eq!(cols, Err(WireError("ragged record columns".to_owned())));
        }
    }

    #[test]
    fn payload_bytes_is_exact() {
        let mut cols = RecordColumns::default();
        assert_eq!(cols.payload_bytes(), 0);
        cols.push(sample(1));
        cols.push(sample(2));
        assert_eq!(cols.payload_bytes(), 2 * ROW_BYTES);
    }

    #[test]
    fn no_id_sentinel_maps_to_none() {
        assert_eq!(col_to_opt(NO_ID), None);
        assert_eq!(col_to_opt(3), Some(3));
        assert_eq!(opt_to_col(None), NO_ID);
        assert_eq!(opt_to_col(Some(3)), 3);
    }
}
