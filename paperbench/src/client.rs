//! A minimal keep-alive HTTP/1.1 client for the daemon: one connection,
//! reopened only when the daemon closes it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

pub struct Reply {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Reply {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None }
    }

    /// Sends one request on the kept-alive connection (opening one if
    /// needed) and reads the whole response.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            self.conn = Some(BufReader::new(stream));
        }
        let result = self.exchange(method, path, body);
        let keep = matches!(&result, Ok(r) if r.header("connection") != Some("close"));
        if !keep {
            self.conn = None;
        }
        result
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
        let conn = self.conn.as_mut().expect("connected above");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            self.addr,
            body.len()
        );
        let stream = conn.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;

        let mut line = String::new();
        if conn.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let mut headers = Vec::new();
        loop {
            line.clear();
            conn.read_line(&mut line)?;
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            let (k, v) = l
                .split_once(':')
                .ok_or_else(|| bad(format!("bad header {l:?}")))?;
            headers.push((k.trim().to_string(), v.trim().to_string()));
        }
        let len: usize = headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| bad("response without Content-Length".into()))?;
        let mut body = vec![0; len];
        conn.read_exact(&mut body)?;
        Ok(Reply {
            status,
            headers,
            body,
        })
    }
}

fn bad(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// The `/assess` request body for a corpus root.
pub fn assess_body(root: &std::path::Path) -> String {
    let mut out = String::from("{\"dir\":");
    adsafe::trace::json::write_escaped(&mut out, &root.display().to_string());
    out.push('}');
    out
}
