//! Server identity: second-level-domain aggregation and IP servers.

use std::fmt;
use std::net::Ipv4Addr;

/// Multi-label public suffixes that require keeping *three* labels to name
/// an organization (`foo.co.uk`, `bar.cz.cc`, …).
///
/// The paper aggregates hosts by second-level domain; a tiny suffix list is
/// enough for the trace vocabularies we generate and the real-world
/// examples the paper cites (`4k0t111m.cz.cc`, `smileenhance.co.uk`).
const MULTI_LABEL_SUFFIXES: &[&str] = &[
    "co.uk", "org.uk", "ac.uk", "gov.uk", "com.au", "net.au", "org.au", "co.jp", "ne.jp", "or.jp",
    "com.br", "com.cn", "net.cn", "org.cn", "co.in", "co.kr", "com.mx", "com.tr", "com.tw",
    "cz.cc", "co.cc", "co.nz", "com.ar", "com.sg", "co.za",
];

/// Returns the second-level domain a host aggregates to (paper §III-A):
/// `a.xyz.com` and `b.xyz.com` both map to `xyz.com`; `x.co.uk` hosts keep
/// three labels.
///
/// Hosts that are already bare second-level domains map to themselves;
/// single-label hosts (e.g. `localhost`) are returned unchanged. The input
/// is lowercased.
///
/// # Example
///
/// ```
/// use smash_trace::second_level_domain;
///
/// assert_eq!(second_level_domain("photos.fbcdn.net"), "fbcdn.net");
/// assert_eq!(second_level_domain("a.b.evil.com"), "evil.com");
/// assert_eq!(second_level_domain("4k0t111m.cz.cc"), "4k0t111m.cz.cc");
/// assert_eq!(second_level_domain("Example.COM"), "example.com");
/// ```
pub fn second_level_domain(host: &str) -> String {
    let host = host.trim_end_matches('.').to_ascii_lowercase();
    let labels: Vec<&str> = host.split('.').collect();
    if labels.len() <= 2 {
        return host;
    }
    let tail = |keep: usize| -> String {
        labels
            .get(labels.len().saturating_sub(keep)..)
            .unwrap_or_default()
            .join(".")
    };
    let last_two = tail(2);
    let keep = if MULTI_LABEL_SUFFIXES.contains(&last_two.as_str()) {
        3
    } else {
        2
    };
    if labels.len() <= keep {
        host
    } else {
        tail(keep)
    }
}

/// The paper's notion of a server: a second-level domain or a bare IP
/// address (clients sometimes contact servers by IP literal with no Host
/// domain).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ServerKey {
    /// A domain-named server, aggregated to its second-level domain.
    Domain(String),
    /// A server contacted directly by IPv4 literal.
    Ip(Ipv4Addr),
}

impl ServerKey {
    /// Builds a key from a raw `Host` header value: IP literals become
    /// [`ServerKey::Ip`], everything else aggregates to its second-level
    /// domain.
    ///
    /// # Example
    ///
    /// ```
    /// use smash_trace::ServerKey;
    ///
    /// assert!(matches!(ServerKey::from_host("1.2.3.4"), ServerKey::Ip(_)));
    /// assert_eq!(
    ///     ServerKey::from_host("cdn.fbcdn.net"),
    ///     ServerKey::Domain("fbcdn.net".into())
    /// );
    /// ```
    pub fn from_host(host: &str) -> Self {
        match host.parse::<Ipv4Addr>() {
            Ok(ip) => ServerKey::Ip(ip),
            Err(_) => ServerKey::Domain(second_level_domain(host)),
        }
    }

    /// Returns the domain name if this is a domain-keyed server.
    pub fn domain(&self) -> Option<&str> {
        match self {
            ServerKey::Domain(d) => Some(d),
            ServerKey::Ip(_) => None,
        }
    }

    /// Returns `true` for IP-keyed servers.
    pub fn is_ip(&self) -> bool {
        matches!(self, ServerKey::Ip(_))
    }
}

impl fmt::Display for ServerKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerKey::Domain(d) => f.write_str(d),
            ServerKey::Ip(ip) => write!(f, "{ip}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_two_label_domains_unchanged() {
        assert_eq!(second_level_domain("evil.com"), "evil.com");
        assert_eq!(second_level_domain("example.org"), "example.org");
    }

    #[test]
    fn deep_subdomains_collapse() {
        assert_eq!(second_level_domain("a.b.c.d.evil.com"), "evil.com");
    }

    #[test]
    fn cdn_examples_from_paper() {
        assert_eq!(second_level_domain("photos-a.fbcdn.net"), "fbcdn.net");
        assert_eq!(
            second_level_domain("ec2-1-2-3-4.amazonaws.com"),
            "amazonaws.com"
        );
    }

    #[test]
    fn multi_label_suffix_keeps_three_labels() {
        assert_eq!(
            second_level_domain("www.smileenhance.co.uk"),
            "smileenhance.co.uk"
        );
        assert_eq!(second_level_domain("4k0t111m.cz.cc"), "4k0t111m.cz.cc");
        assert_eq!(second_level_domain("x.y.4k0t111m.cz.cc"), "4k0t111m.cz.cc");
    }

    #[test]
    fn bare_suffix_is_left_alone() {
        assert_eq!(second_level_domain("co.uk"), "co.uk");
    }

    #[test]
    fn single_label_host_unchanged() {
        assert_eq!(second_level_domain("localhost"), "localhost");
    }

    #[test]
    fn trailing_dot_and_case_normalized() {
        assert_eq!(second_level_domain("WWW.Evil.COM."), "evil.com");
    }

    #[test]
    fn ip_literal_becomes_ip_key() {
        let k = ServerKey::from_host("192.168.1.7");
        assert_eq!(k, ServerKey::Ip(Ipv4Addr::new(192, 168, 1, 7)));
        assert!(k.is_ip());
        assert_eq!(k.domain(), None);
        assert_eq!(k.to_string(), "192.168.1.7");
    }

    #[test]
    fn domain_key_display() {
        let k = ServerKey::from_host("www.shop.example.com");
        assert_eq!(k.to_string(), "example.com");
        assert_eq!(k.domain(), Some("example.com"));
    }
}
