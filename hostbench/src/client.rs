//! A closed-loop HTTP/1.1 client for `dftp serve`: one request per
//! connection (the server closes each), timed at the client.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One full exchange: sends `request`, reads to EOF, returns the status
/// line and the body.
fn exchange(addr: SocketAddr, request: &str) -> Result<(String, Vec<u8>), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut reply = Vec::new();
    stream
        .read_to_end(&mut reply)
        .map_err(|e| format!("read reply: {e}"))?;
    let head_end = head_end(&reply).ok_or("reply has no blank line")?;
    let status = String::from_utf8_lossy(&reply[..head_end])
        .lines()
        .next()
        .unwrap_or("")
        .to_string();
    Ok((status, reply[head_end..].to_vec()))
}

fn head_end(reply: &[u8]) -> Option<usize> {
    reply
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
}

/// `GET path`, expecting `200`; returns the body.
pub fn get(addr: SocketAddr, path: &str) -> Result<String, String> {
    let (status, body) = exchange(addr, &format!("GET {path} HTTP/1.1\r\nHost: b\r\n\r\n"))?;
    let body = String::from_utf8_lossy(&body).into_owned();
    if !status.contains(" 200 ") {
        return Err(format!("GET {path}: {status}: {body}"));
    }
    Ok(body)
}

/// `POST /plans` with a plan form, expecting `202`; returns the plan id.
pub fn submit(addr: SocketAddr, form: &str) -> Result<u64, String> {
    let request = format!(
        "POST /plans HTTP/1.1\r\nHost: b\r\nContent-Length: {}\r\n\r\n{form}",
        form.len()
    );
    let (status, body) = exchange(addr, &request)?;
    let body = String::from_utf8_lossy(&body).into_owned();
    if !status.contains(" 202 ") {
        return Err(format!("POST /plans: {status}: {body}"));
    }
    field_u64(&body, "id")
}

/// Reads the unsigned integer field `key` of a flat JSON object.
pub fn field_u64(json: &str, key: &str) -> Result<u64, String> {
    let marker = format!("\"{key}\":");
    let start = json
        .find(&marker)
        .ok_or_else(|| format!("no field {key} in {json}"))?
        + marker.len();
    json[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .map_err(|_| format!("field {key} of {json} is not an unsigned integer"))
}

/// A plan's result stream as the client saw it.
pub struct Streamed {
    /// The JSONL payload (chunked framing removed).
    pub body: Vec<u8>,
    /// From sending the request to the first byte past the response head,
    /// which the server writes only once a record (or the end) is ready.
    pub first_record: Duration,
    /// Time spent blocked in `read`.
    pub blocked: Duration,
}

/// `GET /plans/<id>/stream` to the end of the plan.
pub fn stream(addr: SocketAddr, id: u64) -> Result<Streamed, String> {
    let started = Instant::now();
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    conn.write_all(format!("GET /plans/{id}/stream HTTP/1.1\r\nHost: b\r\n\r\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut reply = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    let mut first_record = None;
    let mut blocked = Duration::ZERO;
    loop {
        let read_started = Instant::now();
        let n = conn
            .read(&mut chunk)
            .map_err(|e| format!("read stream: {e}"))?;
        blocked += read_started.elapsed();
        if n == 0 {
            break;
        }
        reply.extend_from_slice(&chunk[..n]);
        if first_record.is_none() && head_end(&reply).is_some_and(|h| reply.len() > h) {
            first_record = Some(started.elapsed());
        }
    }
    let head = head_end(&reply).ok_or("stream reply has no blank line")?;
    if !reply.starts_with(b"HTTP/1.1 200") {
        return Err(format!(
            "stream {id}: {}",
            String::from_utf8_lossy(&reply[..head])
        ));
    }
    Ok(Streamed {
        body: dechunk(&reply[head..])?,
        first_record: first_record.ok_or("stream ended before any record")?,
        blocked,
    })
}

/// Decodes a chunked transfer-encoded body into its payload bytes.
fn dechunk(mut body: &[u8]) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    loop {
        let line_end = body
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or("truncated chunk size line")?;
        let size_text = std::str::from_utf8(&body[..line_end]).map_err(|e| e.to_string())?;
        let size = usize::from_str_radix(size_text.trim(), 16)
            .map_err(|_| format!("bad chunk size {size_text:?}"))?;
        body = &body[line_end + 2..];
        if size == 0 {
            return Ok(out);
        }
        if body.len() < size + 2 || &body[size..size + 2] != b"\r\n" {
            return Err("truncated chunk".to_string());
        }
        out.extend_from_slice(&body[..size]);
        body = &body[size + 2..];
    }
}
