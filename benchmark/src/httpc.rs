//! A blocking HTTP/1.1 client for the loopback listener: one request per
//! connection, the way `parsim_server::http` serves them.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    pub status: u16,
    /// Header names lower-cased.
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl HttpResponse {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses a whole `Connection: close` response with a `Content-Length` body.
pub fn parse_response(raw: &[u8]) -> Result<HttpResponse, String> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header terminator")?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|e| format!("header bytes: {e}"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or("empty response")?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line '{status_line}'"))?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let body = &raw[split + 4..];
    let declared = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .ok_or("response has no content-length")?
        .1
        .parse::<usize>()
        .map_err(|_| "content-length is not a number")?;
    if body.len() != declared {
        return Err(format!(
            "body is {} bytes, content-length says {declared}",
            body.len()
        ));
    }
    let body = String::from_utf8(body.to_vec()).map_err(|e| format!("body bytes: {e}"))?;
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

/// Sends one request and reads the response to end of stream.
pub fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &str,
) -> Result<HttpResponse, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .map_err(|e| format!("send head: {e}"))?;
    stream
        .write_all(body.as_bytes())
        .map_err(|e| format!("send body: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read response: {e}"))?;
    parse_response(&raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;

    const CANNED: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 5\r\n\
        X-Parsim-Lanes-In-Batch: 8\r\nX-Parsim-Cache-Hit: true\r\nConnection: close\r\n\r\nid=7\n";

    #[test]
    fn canned_response_parses() {
        let r = parse_response(CANNED).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body, "id=7\n");
        assert_eq!(r.header("x-parsim-lanes-in-batch"), Some("8"));
        assert_eq!(r.header("x-parsim-cache-hit"), Some("true"));
        assert_eq!(r.header("missing"), None);
    }

    #[test]
    fn short_or_headerless_responses_are_errors() {
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n\r\nbody").is_err());
        assert!(parse_response(b"no terminator").is_err());
        assert!(parse_response(b"HTTP/1.1 abc\r\nContent-Length: 0\r\n\r\n").is_err());
    }

    #[test]
    fn client_talks_to_a_canned_server() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
            let mut request_line = String::new();
            reader.read_line(&mut request_line).unwrap();
            let mut length = 0usize;
            loop {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                if line.trim_end().is_empty() {
                    break;
                }
                if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                    length = v.trim().parse().unwrap();
                }
            }
            let mut body = vec![0u8; length];
            reader.read_exact(&mut body).unwrap();
            let mut stream = stream;
            stream.write_all(CANNED).unwrap();
            (request_line, body)
        });
        let r = request(addr, "POST", "/v1/jobs?end=9", "node a 1\n").unwrap();
        assert_eq!((r.status, r.body.as_str()), (200, "id=7\n"));
        let (request_line, body) = server.join().unwrap();
        assert_eq!(request_line.trim_end(), "POST /v1/jobs?end=9 HTTP/1.1");
        assert_eq!(body, b"node a 1\n");
    }
}
