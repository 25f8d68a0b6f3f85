//! A minimal HTTP/1.1 client (the servers answer `Connection: close`, so
//! every request is one connection) and the closed-loop load generator.

use crate::stats::Outcome;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
/// A request not answered within this time has failed.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One response: status code and body.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Sends `GET path` with extra headers and reads the whole response.
pub fn get(addr: SocketAddr, path: &str, headers: &[(&str, String)]) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let mut req = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n");
    for (k, v) in headers {
        req.push_str(&format!("{k}: {v}\r\n"));
    }
    req.push_str("\r\n");
    stream.write_all(req.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_reply(&raw)
}

/// Sends `POST path` with an empty body and reads the whole response.
pub fn post(addr: SocketAddr, path: &str) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    let req = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
    );
    stream.write_all(req.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_reply(&raw)
}

fn parse_reply(raw: &[u8]) -> std::io::Result<Reply> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response has no header terminator"))?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("header is not UTF-8"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    Ok(Reply {
        status,
        body: raw[head_end + 4..].to_vec(),
    })
}

/// Results asked for per query, the serve app's default.
pub const K: usize = 5;

/// The `/query` path for one document.
pub fn query_path(doc: usize) -> String {
    format!("/query?doc={doc}&k={K}")
}

/// One closed-loop request as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    pub doc: usize,
    /// Completion time, nanoseconds after the loop started.
    pub done_ns: u64,
    /// Round-trip time, or `None` for a failure.
    pub outcome: Outcome,
    /// Kept for the after-the-window correctness check (first few only).
    pub body: Option<Vec<u8>>,
}

/// What each closed-loop client does per request; `send` returns the
/// reply and is timed around the whole round trip.
pub struct ClosedLoop<'a> {
    pub addr: SocketAddr,
    pub clients: usize,
    pub seed: u64,
    /// Drawn uniformly below this bound each request.
    pub num_docs: &'a (dyn Fn() -> usize + Sync),
    /// Clients stop issuing requests once this returns true.
    pub done: &'a (dyn Fn() -> bool + Sync),
    /// Responses kept per client for the correctness check.
    pub keep_bodies: usize,
}

impl ClosedLoop<'_> {
    /// Runs every client until `done`; returns each client's samples and
    /// the wall time the loop ran.
    pub fn run(
        &self,
        send: &(dyn Fn(usize, SocketAddr, &str) -> std::io::Result<Reply> + Sync),
    ) -> (Vec<Sample>, Duration) {
        let started = Instant::now();
        let per_client: Vec<Vec<Sample>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.clients)
                .map(|c| {
                    let started = &started;
                    s.spawn(move || {
                        let mut rng = crate::inputs::SplitMix::new(self.seed ^ (c as u64 + 1));
                        let mut out = Vec::new();
                        while !(self.done)() {
                            let doc = rng.below((self.num_docs)());
                            let path = query_path(doc);
                            let t = Instant::now();
                            let reply = send(c, self.addr, &path);
                            let elapsed = t.elapsed().as_nanos() as u64;
                            let (outcome, body) = match reply {
                                Ok(r) if r.status == 200 => (
                                    Some(elapsed),
                                    (out.len() < self.keep_bodies).then_some(r.body),
                                ),
                                _ => (None, None),
                            };
                            out.push(Sample {
                                doc,
                                done_ns: started.elapsed().as_nanos() as u64,
                                outcome,
                                body,
                            });
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall = started.elapsed();
        (per_client.into_iter().flatten().collect(), wall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_body() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi";
        let r = parse_reply(raw).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body, b"hi");
        assert!(parse_reply(b"garbage").is_err());
    }
}
