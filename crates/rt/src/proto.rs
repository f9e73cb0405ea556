//! The RPN → RDN control protocol: newline-delimited JSON messages over a
//! persistent TCP connection.

use std::io::{BufRead, Read, Write};

use gage_core::accounting::UsageReport;

/// Messages a back end sends the front end.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlMsg {
    /// First message on the control connection: which HTTP address this
    /// back end serves on (the front end maps it to an `RpnId`).
    Register {
        /// The back end's HTTP listen address, e.g. `127.0.0.1:9001`.
        http_addr: String,
    },
    /// An accounting-cycle usage report.
    Report {
        /// The report body (the `rpn` field is overwritten by the front end
        /// with the id it assigned at registration).
        report: UsageReport,
    },
}

impl ControlMsg {
    /// Serializes to the tagged wire object, e.g.
    /// `{"type":"register","http_addr":"127.0.0.1:9001"}`.
    pub fn to_json(&self) -> gage_json::Json {
        match self {
            ControlMsg::Register { http_addr } => gage_json::Json::obj([
                ("type", gage_json::Json::str("register")),
                ("http_addr", gage_json::Json::str(http_addr)),
            ]),
            ControlMsg::Report { report } => gage_json::Json::obj([
                ("type", gage_json::Json::str("report")),
                ("report", report.to_json()),
            ]),
        }
    }

    /// Parses a wire object written by [`ControlMsg::to_json`].
    pub fn from_json(v: &gage_json::Json) -> Option<Self> {
        match v.get("type")?.as_str()? {
            "register" => Some(ControlMsg::Register {
                http_addr: v.get("http_addr")?.as_str()?.to_string(),
            }),
            "report" => Some(ControlMsg::Report {
                report: UsageReport::from_json(v.get("report")?)?,
            }),
            _ => None,
        }
    }
}

/// Serializes one message as a JSON line.
///
/// # Errors
///
/// Propagates transport errors.
pub fn send_msg<W>(writer: &mut W, msg: &ControlMsg) -> std::io::Result<()>
where
    W: Write,
{
    let mut line = msg.to_json().to_string().into_bytes();
    line.push(b'\n');
    writer.write_all(&line)?;
    writer.flush()
}

/// Longest control line [`recv_msg`] accepts, newline included: 1 MiB.
/// A usage report costs under 270 bytes per subscriber with every value a
/// full-precision float of up to 10^12 in magnitude, so this holds a
/// report for more than 3,500 subscribers; the live deployments here send
/// a handful. A peer that streams past it without a newline is cut off
/// instead of growing the front end's memory.
pub const MAX_CONTROL_LINE: usize = 1 << 20;

/// Reads the next message, or `None` on clean EOF.
///
/// # Errors
///
/// Propagates transport errors; malformed lines and lines longer than
/// [`MAX_CONTROL_LINE`] are reported as `InvalidData`.
pub fn recv_msg<R>(reader: &mut R) -> std::io::Result<Option<ControlMsg>>
where
    R: BufRead,
{
    let invalid = |what: String| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
    let mut line = String::new();
    let n = reader.take(MAX_CONTROL_LINE as u64).read_line(&mut line)?;
    if n == 0 {
        return Ok(None);
    }
    if n == MAX_CONTROL_LINE && !line.ends_with('\n') {
        return Err(invalid(format!(
            "control line exceeds {MAX_CONTROL_LINE} bytes"
        )));
    }
    let doc = gage_json::parse(line.trim_end()).map_err(|e| invalid(e.to_string()))?;
    ControlMsg::from_json(&doc)
        .map(Some)
        .ok_or_else(|| invalid("unrecognized control message".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gage_core::accounting::SubscriberUsage;
    use gage_core::node::RpnId;
    use gage_core::resource::ResourceVector;
    use gage_core::subscriber::SubscriberId;
    use std::io::BufReader;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn round_trip_json() {
        let msg = ControlMsg::Report {
            report: UsageReport {
                rpn: RpnId(3),
                total: ResourceVector::new(1.0, 2.0, 3.0),
                outstanding_predicted: ResourceVector::new(4.0, 5.0, 6.0),
                per_subscriber: vec![],
            },
        };
        let text = msg.to_json().to_string();
        let back =
            ControlMsg::from_json(&gage_json::parse(&text).expect("parses")).expect("well-formed");
        assert_eq!(back, msg);
    }

    #[test]
    fn rejects_unknown_type() {
        let doc = gage_json::parse(r#"{"type":"launch_missiles"}"#).expect("parses");
        assert!(ControlMsg::from_json(&doc).is_none());
    }

    #[test]
    fn overlong_line_is_refused_at_the_cap() {
        // cap + 1 bytes and no newline: refused after reading exactly the
        // cap, so the line buffer never grew past it.
        let mut reader = std::io::Cursor::new(vec![b'x'; MAX_CONTROL_LINE + 1]);
        let err = recv_msg(&mut reader).expect_err("over the cap");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(reader.position(), MAX_CONTROL_LINE as u64);

        // A message padded to exactly the cap, newline included, still reads.
        let mut line = r#"{"type":"register","http_addr":"127.0.0.1:9001"}"#.to_string();
        line.push_str(&" ".repeat(MAX_CONTROL_LINE - 1 - line.len()));
        line.push('\n');
        let mut reader = std::io::Cursor::new(line.into_bytes());
        assert!(recv_msg(&mut reader).expect("at the cap").is_some());
    }

    #[test]
    fn a_3500_subscriber_report_fits_under_the_cap() {
        // 17 significant digits at up to 10^12: the widest a plausible
        // usage value prints.
        let worst = ResourceVector::new(-1e12 / 7.0, -1e11 / 7.0, -1e10 / 7.0);
        let msg = ControlMsg::Report {
            report: UsageReport {
                rpn: RpnId(u16::MAX),
                total: worst,
                outstanding_predicted: worst,
                per_subscriber: (0..3_500)
                    .map(|i| SubscriberUsage {
                        subscriber: SubscriberId(u32::MAX - i),
                        actual: worst,
                        settled_predicted: worst,
                        completed: u32::MAX,
                    })
                    .collect(),
            },
        };
        let mut wire = Vec::new();
        send_msg(&mut wire, &msg).expect("send");
        assert!(wire.len() < MAX_CONTROL_LINE, "{} bytes", wire.len());
        let back = recv_msg(&mut wire.as_slice()).expect("recv");
        assert_eq!(back, Some(msg));
    }

    #[test]
    fn send_recv_over_tcp() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            send_msg(
                &mut stream,
                &ControlMsg::Register {
                    http_addr: "127.0.0.1:9001".into(),
                },
            )
            .expect("send");
        });
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream);
        let msg = recv_msg(&mut reader).expect("recv").expect("one message");
        client.join().expect("client");
        assert_eq!(
            msg,
            ControlMsg::Register {
                http_addr: "127.0.0.1:9001".into()
            }
        );
        // EOF after the client hangs up.
        assert!(recv_msg(&mut reader).expect("eof").is_none());
    }
}
