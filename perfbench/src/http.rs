//! A minimal blocking HTTP/1.1 keep-alive client, and a reader for the
//! Prometheus text the front-ends expose on `/metrics`.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One keep-alive connection to a front-end.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

/// An HTTP response: status and body.
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            buf: Vec::with_capacity(64 << 10),
        }
    }

    /// Sends one request and reads the whole response. A broken
    /// connection is dropped, so the next call dials afresh.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        let result = self.try_request(method, path, body);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    pub fn post(&mut self, path: &str, body: &[u8]) -> io::Result<Response> {
        self.request("POST", path, body)
    }

    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.request("GET", path, b"")
    }

    fn try_request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5))?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n",
            body.len()
        );
        if !body.is_empty() {
            head.push_str("content-type: application/json\r\n");
        }
        head.push_str("\r\n");
        let mut out = Vec::with_capacity(head.len() + body.len());
        out.extend_from_slice(head.as_bytes());
        out.extend_from_slice(body);
        stream.write_all(&out)?;

        self.buf.clear();
        let mut chunk = [0u8; 16 << 10];
        let head_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i + 4;
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "closed mid-head",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 head"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut length = 0usize;
        let mut close = false;
        for line in head.split("\r\n").skip(1) {
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .parse()
                        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad length"))?;
                } else if name.eq_ignore_ascii_case("connection")
                    && value.eq_ignore_ascii_case("close")
                {
                    close = true;
                }
            }
        }
        while self.buf.len() < head_end + length {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "closed mid-body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[head_end..head_end + length].to_vec();
        if close {
            self.stream = None;
        }
        Ok(Response { status, body })
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// One `/metrics` scrape: every sample by its full series name
/// (`name{labels}`).
#[derive(Clone, Default)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let mut samples = BTreeMap::new();
        for line in text.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            if let Some((series, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.trim().parse::<f64>() {
                    samples.insert(series.to_string(), v);
                }
            }
        }
        Scrape(samples)
    }

    /// A sample's value (0 when absent: counters start at zero).
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// `after − before` for one series.
    pub fn delta(&self, before: &Scrape, series: &str) -> f64 {
        self.get(series) - before.get(series)
    }

    /// The cumulative bucket counts of an unlabelled histogram, by
    /// upper bound.
    fn buckets(&self, name: &str) -> Vec<(f64, f64)> {
        let prefix = format!("{name}_bucket{{le=\"");
        let mut out: Vec<(f64, f64)> = self
            .0
            .iter()
            .filter_map(|(series, &count)| {
                let le = series.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                Some((le.parse().ok()?, count))
            })
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }

    /// The `q`-quantile of the observations a histogram gained between
    /// two scrapes, as the upper bound of the bucket it falls in (the
    /// registry's log buckets), or 0 without observations.
    pub fn histogram_quantile(&self, before: &Scrape, name: &str, q: f64) -> f64 {
        let after = self.buckets(name);
        let before = before.buckets(name);
        // Cumulative counts at each bound; a bound absent from a scrape
        // carries the cumulative count of the bound below it.
        let at = |series: &[(f64, f64)], bound: f64| {
            series
                .iter()
                .take_while(|(b, _)| *b <= bound)
                .last()
                .map_or(0.0, |(_, c)| *c)
        };
        let deltas: Vec<(f64, f64)> = after
            .iter()
            .map(|&(bound, _)| (bound, at(&after, bound) - at(&before, bound)))
            .collect();
        let total = deltas.last().map_or(0.0, |d| d.1);
        if total <= 0.0 {
            return 0.0;
        }
        deltas
            .iter()
            .find(|(_, c)| *c >= q * total)
            .map_or(0.0, |(b, _)| *b)
    }
}
