//! Raw HTTP request records as observed at the network edge.

use smash_support::impl_json_struct;
use std::borrow::Cow;
use std::fmt;
use std::net::Ipv4Addr;

/// A record rejected by [`HttpRecord::try_new`] (e.g. an invalid IPv4
/// literal in untrusted input).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordError(String);

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for RecordError {}

/// One observed HTTP request.
///
/// This mirrors the fields the paper extracts from its ISP PCAP traces:
/// client identity, destination host (domain or IP literal), destination
/// IP, request URI, user-agent, referrer, and response status. A `Location`
/// target is recorded for 3xx responses so redirection chains can be
/// reconstructed during pruning.
///
/// # Example
///
/// ```
/// use smash_trace::HttpRecord;
///
/// let r = HttpRecord::new(1000, "client-1", "cc.evil.com", "10.9.9.9", "/login.php?id=7")
///     .with_user_agent("Internet Exploder")
///     .with_status(200);
/// assert_eq!(r.host, "cc.evil.com");
/// assert_eq!(r.status, 200);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRecord {
    /// Seconds since the start of the trace.
    pub timestamp: u64,
    /// Client identity (anonymized client id in the paper's traces).
    pub client: String,
    /// Destination host header: a domain name or an IPv4 literal.
    pub host: String,
    /// Destination server IPv4 address.
    pub server_ip: Ipv4Addr,
    /// HTTP method (default `GET`).
    pub method: String,
    /// Request URI including the query string.
    pub uri: String,
    /// User-agent header (may be `-` as in the iframe-injection campaign).
    pub user_agent: String,
    /// Referring host, if the request carried a `Referer` header.
    pub referrer: Option<String>,
    /// HTTP response status code (`0` when no response was observed).
    pub status: u16,
    /// Response body size in bytes (`0` when unknown) — the paper's §VI
    /// proposed *payload similarity* dimension keys on this.
    /// Defaults to 0 when absent so traces written before the field
    /// existed still parse.
    pub resp_bytes: u32,
    /// Target host of a 3xx `Location` header, when present.
    pub redirect_to: Option<String>,
}

impl_json_struct!(HttpRecord {
    timestamp,
    client,
    host,
    server_ip,
    method,
    uri,
    user_agent,
    referrer,
    status,
    resp_bytes?,
    redirect_to,
});

/// The eleven fields of an [`HttpRecord`] with the strings borrowed —
/// from a JSONL line ([`crate::io::decode_fields`]; owned only where the
/// line escaped a character) or from a record ([`HttpRecord::fields`]).
/// This is what the arena interns from: a record on its way into a
/// [`crate::TraceDataset`] never needs owned strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordFields<'a> {
    /// See [`HttpRecord::timestamp`].
    pub timestamp: u64,
    /// See [`HttpRecord::client`].
    pub client: Cow<'a, str>,
    /// See [`HttpRecord::host`].
    pub host: Cow<'a, str>,
    /// See [`HttpRecord::server_ip`].
    pub server_ip: Ipv4Addr,
    /// See [`HttpRecord::method`].
    pub method: Cow<'a, str>,
    /// See [`HttpRecord::uri`].
    pub uri: Cow<'a, str>,
    /// See [`HttpRecord::user_agent`].
    pub user_agent: Cow<'a, str>,
    /// See [`HttpRecord::referrer`].
    pub referrer: Option<Cow<'a, str>>,
    /// See [`HttpRecord::status`].
    pub status: u16,
    /// See [`HttpRecord::resp_bytes`].
    pub resp_bytes: u32,
    /// See [`HttpRecord::redirect_to`].
    pub redirect_to: Option<Cow<'a, str>>,
}

impl RecordFields<'_> {
    /// The owned record, copying only the strings still borrowed.
    pub fn into_record(self) -> HttpRecord {
        HttpRecord {
            timestamp: self.timestamp,
            client: self.client.into_owned(),
            host: self.host.into_owned(),
            server_ip: self.server_ip,
            method: self.method.into_owned(),
            uri: self.uri.into_owned(),
            user_agent: self.user_agent.into_owned(),
            referrer: self.referrer.map(Cow::into_owned),
            status: self.status,
            resp_bytes: self.resp_bytes,
            redirect_to: self.redirect_to.map(Cow::into_owned),
        }
    }
}

impl HttpRecord {
    /// The record's fields, borrowed.
    pub fn fields(&self) -> RecordFields<'_> {
        RecordFields {
            timestamp: self.timestamp,
            client: Cow::Borrowed(&self.client),
            host: Cow::Borrowed(&self.host),
            server_ip: self.server_ip,
            method: Cow::Borrowed(&self.method),
            uri: Cow::Borrowed(&self.uri),
            user_agent: Cow::Borrowed(&self.user_agent),
            referrer: self.referrer.as_deref().map(Cow::Borrowed),
            status: self.status,
            resp_bytes: self.resp_bytes,
            redirect_to: self.redirect_to.as_deref().map(Cow::Borrowed),
        }
    }

    /// Creates a record with the required fields; the rest default to
    /// `GET`, an empty user-agent, status `200`, and no referrer/redirect.
    ///
    /// This is the convenience constructor for **trusted** callers —
    /// tests and the synthetic-trace generator, where an invalid IP is a
    /// bug in the caller. Code handling untrusted input (flow logs,
    /// network bytes) must use [`try_new`](Self::try_new) or
    /// [`new_with_ip`](Self::new_with_ip) instead; no panic may be
    /// reachable from trace bytes.
    ///
    /// # Panics
    ///
    /// Panics if `server_ip` is not a valid IPv4 literal.
    pub fn new(timestamp: u64, client: &str, host: &str, server_ip: &str, uri: &str) -> Self {
        // lint:allow(panic): documented panicking convenience constructor; untrusted input uses try_new.
        Self::try_new(timestamp, client, host, server_ip, uri).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor for untrusted input: parses `server_ip` and
    /// reports failure instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns a [`RecordError`] if `server_ip` is not a valid IPv4
    /// literal.
    pub fn try_new(
        timestamp: u64,
        client: &str,
        host: &str,
        server_ip: &str,
        uri: &str,
    ) -> Result<Self, RecordError> {
        let ip: Ipv4Addr = server_ip
            .parse()
            .map_err(|_| RecordError(format!("invalid IPv4 literal: {server_ip}")))?;
        Ok(Self::new_with_ip(timestamp, client, host, ip, uri))
    }

    /// Infallible constructor taking an already-parsed server IP.
    pub fn new_with_ip(
        timestamp: u64,
        client: &str,
        host: &str,
        server_ip: Ipv4Addr,
        uri: &str,
    ) -> Self {
        Self {
            timestamp,
            client: client.to_owned(),
            host: host.to_owned(),
            server_ip,
            method: "GET".to_owned(),
            uri: uri.to_owned(),
            user_agent: String::new(),
            referrer: None,
            status: 200,
            resp_bytes: 0,
            redirect_to: None,
        }
    }

    /// Sets the HTTP method.
    pub fn with_method(mut self, method: &str) -> Self {
        self.method = method.to_owned();
        self
    }

    /// Sets the user-agent header.
    pub fn with_user_agent(mut self, ua: &str) -> Self {
        self.user_agent = ua.to_owned();
        self
    }

    /// Sets the referring host.
    pub fn with_referrer(mut self, host: &str) -> Self {
        self.referrer = Some(host.to_owned());
        self
    }

    /// Sets the response status code.
    pub fn with_status(mut self, status: u16) -> Self {
        self.status = status;
        self
    }

    /// Sets the response body size in bytes.
    pub fn with_resp_bytes(mut self, bytes: u32) -> Self {
        self.resp_bytes = bytes;
        self
    }

    /// Marks the response as a redirect to `host` (also forces a 302
    /// status if the current status is not already 3xx).
    pub fn with_redirect_to(mut self, host: &str) -> Self {
        self.redirect_to = Some(host.to_owned());
        if !(300..400).contains(&self.status) {
            self.status = 302;
        }
        self
    }

    /// Returns `true` if the observed response was an HTTP error (4xx/5xx)
    /// or missing entirely — the paper's "suspicious" existence check.
    pub fn is_error(&self) -> bool {
        self.status == 0 || self.status >= 400
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let r = HttpRecord::new(0, "c", "h.com", "1.2.3.4", "/");
        assert_eq!(r.method, "GET");
        assert_eq!(r.status, 200);
        assert!(r.referrer.is_none());
        assert!(!r.is_error());
    }

    #[test]
    fn redirect_forces_3xx() {
        let r = HttpRecord::new(0, "c", "h.com", "1.2.3.4", "/").with_redirect_to("land.com");
        assert_eq!(r.status, 302);
        assert_eq!(r.redirect_to.as_deref(), Some("land.com"));
    }

    #[test]
    fn explicit_301_kept() {
        let r = HttpRecord::new(0, "c", "h.com", "1.2.3.4", "/")
            .with_status(301)
            .with_redirect_to("land.com");
        assert_eq!(r.status, 301);
    }

    #[test]
    fn error_statuses() {
        assert!(HttpRecord::new(0, "c", "h.com", "1.2.3.4", "/")
            .with_status(404)
            .is_error());
        assert!(HttpRecord::new(0, "c", "h.com", "1.2.3.4", "/")
            .with_status(0)
            .is_error());
        assert!(!HttpRecord::new(0, "c", "h.com", "1.2.3.4", "/")
            .with_status(302)
            .is_error());
    }

    #[test]
    #[should_panic(expected = "invalid IPv4")]
    fn bad_ip_panics() {
        HttpRecord::new(0, "c", "h.com", "not-an-ip", "/");
    }

    #[test]
    fn try_new_reports_bad_ip_instead_of_panicking() {
        let err = HttpRecord::try_new(0, "c", "h.com", "999.1.1.1", "/").unwrap_err();
        assert!(err.to_string().contains("999.1.1.1"));
        let ok = HttpRecord::try_new(0, "c", "h.com", "9.9.9.9", "/").unwrap();
        assert_eq!(ok, HttpRecord::new(0, "c", "h.com", "9.9.9.9", "/"));
    }

    #[test]
    fn new_with_ip_skips_parsing() {
        let r = HttpRecord::new_with_ip(3, "c", "h.com", std::net::Ipv4Addr::new(1, 2, 3, 4), "/");
        assert_eq!(r, HttpRecord::new(3, "c", "h.com", "1.2.3.4", "/"));
    }

    #[test]
    fn resp_bytes_defaults_to_zero_for_old_jsonl() {
        // Traces written before the field existed still parse.
        let old = r#"{"timestamp":0,"client":"c","host":"h.com","server_ip":"1.2.3.4","method":"GET","uri":"/","user_agent":"","referrer":null,"status":200,"redirect_to":null}"#;
        let r: HttpRecord = smash_support::json::from_str(old).unwrap();
        assert_eq!(r.resp_bytes, 0);
    }

    #[test]
    fn serde_round_trip() {
        let r = HttpRecord::new(5, "c", "h.com", "1.2.3.4", "/x.php?a=1")
            .with_referrer("ref.com")
            .with_user_agent("UA");
        let json = smash_support::json::to_string(&r);
        let back: HttpRecord = smash_support::json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
