//! The pub/sub connectors: publishing a stream into a topic and
//! subscribing a downstream module to it.
//!
//! These implement the paper's *Raw Data Connector* and *Event
//! Connector* modules: decoupled, replayable hand-off points between
//! the Raw Data Collector, the Event Monitor and the Event
//! Aggregator. Stream control (watermarks, end-of-stream) crosses the
//! broker in-band as [`ConnectorMessage`]s, so event time keeps
//! progressing on the other side.
//!
//! Each connector exists once. [`publisher`] and [`TopicSource`] take
//! either end of an in-process topic (`strata_pubsub::{Producer,
//! Consumer}`) or of a remote one (`strata_net::{RemoteProducer,
//! RemoteConsumer}`) and behave the same over both.

use std::time::Duration;

use strata_pubsub::{PolledRecord, Record};
use strata_spe::{Element, Source, SourceContext};

use crate::codec::{self, ConnectorMessage};
use crate::tuple::AmTuple;

/// The broker-client interface a connector needs, split into the
/// writer and reader ends of a topic. Private to the crate: only the
/// in-process and TCP clients implement it.
mod client {
    use super::{Duration, PolledRecord, Record};

    /// The publishing end of a connector topic.
    pub trait TopicWriter: Send + 'static {
        fn send(&mut self, topic: &str, record: Record) -> Result<(), String>;
    }

    /// The subscribed end of a connector topic.
    pub trait TopicReader: std::fmt::Debug + Send + 'static {
        fn poll(&mut self, timeout: Duration) -> Result<Vec<PolledRecord>, String>;
        /// Makes the polled positions the group's resume point.
        fn commit(&mut self) -> Result<(), String>;
    }

    impl TopicWriter for strata_pubsub::Producer {
        fn send(&mut self, topic: &str, record: Record) -> Result<(), String> {
            self.send_record(topic, record)
                .map(drop)
                .map_err(|e| e.to_string())
        }
    }

    impl TopicWriter for strata_net::RemoteProducer {
        fn send(&mut self, topic: &str, record: Record) -> Result<(), String> {
            self.send_record(topic, record)
                .map(drop)
                .map_err(|e| e.to_string())
        }
    }

    impl TopicReader for strata_pubsub::Consumer {
        fn poll(&mut self, timeout: Duration) -> Result<Vec<PolledRecord>, String> {
            strata_pubsub::Consumer::poll(self, timeout).map_err(|e| e.to_string())
        }
        fn commit(&mut self) -> Result<(), String> {
            strata_pubsub::Consumer::commit(self).map_err(|e| e.to_string())
        }
    }

    impl TopicReader for strata_net::RemoteConsumer {
        fn poll(&mut self, timeout: Duration) -> Result<Vec<PolledRecord>, String> {
            strata_net::RemoteConsumer::poll(self, timeout).map_err(|e| e.to_string())
        }
        fn commit(&mut self) -> Result<(), String> {
            strata_net::RemoteConsumer::commit(self).map_err(|e| e.to_string())
        }
    }
}

use client::{TopicReader, TopicWriter};

/// Flattens a stream element into connector wire messages. The wire
/// format stays item-level at every engine batch size: a micro-batch
/// becomes that many consecutive `Tuple` messages, so the bytes in
/// the topic are identical whether the SPE ran batched or not.
fn connector_messages(element: Element<AmTuple>) -> Vec<ConnectorMessage> {
    match element {
        Element::Item(tuple) => vec![ConnectorMessage::Tuple(tuple)],
        Element::Batch(batch) => batch
            .into_vec()
            .into_iter()
            .map(ConnectorMessage::Tuple)
            .collect(),
        Element::Watermark(ts) => vec![ConnectorMessage::Watermark(ts)],
        Element::End => vec![ConnectorMessage::End],
    }
}

/// Encodes a connector message as a topic record. Keyed by
/// `job:layer` so a future multi-partition layout would keep
/// per-layer order.
fn connector_record(message: ConnectorMessage) -> Record {
    let key = match &message {
        ConnectorMessage::Tuple(t) => {
            format!("{}:{}", t.metadata().job, t.metadata().layer)
        }
        _ => "control".to_string(),
    };
    let timestamp = match &message {
        ConnectorMessage::Tuple(t) => t.metadata().timestamp.as_millis(),
        ConnectorMessage::Watermark(ts) => ts.as_millis(),
        ConnectorMessage::End => 0,
    };
    Record::new(Some(key.into_bytes()), codec::encode(&message)).with_timestamp(timestamp)
}

/// Builds the element-sink callback that republishes a stream into
/// `topic` through `producer`: a `strata_pubsub::Producer` or a
/// `strata_net::RemoteProducer`. The remote producer retries
/// transient transport failures itself; a send that still fails (or
/// hits a deleted topic) drops the element, matching "subscriber
/// gone".
pub fn publisher(
    mut producer: impl TopicWriter,
    topic: String,
) -> impl FnMut(Element<AmTuple>) + Send + 'static {
    move |element| {
        for message in connector_messages(element) {
            let _ = producer.send(&topic, connector_record(message));
        }
    }
}

/// An SPE [`Source`] feeding a downstream module from a connector
/// topic: decodes tuples, re-emits watermarks, and ends when the
/// upstream's end-of-stream marker arrives.
///
/// The source commits its consumer's offsets after every poll batch
/// it fully handed to the engine, and again when it ends, is stopped
/// or loses its downstream, so a restarted module resumes from the
/// last batch it emitted.
#[derive(Debug)]
pub struct TopicSource {
    consumer: Box<dyn TopicReader>,
    poll_timeout: Duration,
}

impl TopicSource {
    /// Wraps a subscribed `strata_pubsub::Consumer` or a connected
    /// `strata_net::RemoteConsumer`. Each downstream module uses its
    /// own consumer group, so independent pipelines each see the full
    /// stream.
    pub fn new(consumer: impl TopicReader, poll_timeout: Duration) -> Self {
        TopicSource {
            consumer: Box::new(consumer),
            poll_timeout,
        }
    }
}

impl Source for TopicSource {
    type Out = AmTuple;

    fn run(&mut self, ctx: &mut SourceContext<AmTuple>) -> Result<(), String> {
        'poll: while !ctx.should_stop() {
            let records = self
                .consumer
                .poll(self.poll_timeout)
                .map_err(|e| format!("connector poll failed: {e}"))?;
            if records.is_empty() {
                continue;
            }
            for polled in records {
                let open = match codec::decode(&polled.record.value)
                    .map_err(|e| format!("connector decode failed: {e}"))?
                {
                    ConnectorMessage::Tuple(tuple) => ctx.emit(tuple),
                    ConnectorMessage::Watermark(ts) => ctx.emit_watermark(ts),
                    ConnectorMessage::End => false,
                };
                if !open {
                    break 'poll;
                }
            }
            // Batch fully handed to the engine: make it the resume
            // point for a successor or a reconnect.
            let _ = self.consumer.commit();
        }
        // End of stream, stop, or downstream gone.
        let _ = self.consumer.commit();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strata_pubsub::{Broker, TopicConfig};
    use strata_spe::prelude::*;

    /// Publishes an item, a watermark and the end marker into
    /// `bridge` through `producer`, then drains it through a
    /// [`TopicSource`] on `consumer`.
    fn round_trip(producer: impl TopicWriter, consumer: impl TopicReader) {
        let mut publish = publisher(producer, "bridge".into());
        let t = AmTuple::new(Timestamp::from_millis(10), 1, 0);
        publish(Element::Item(t.clone()));
        publish(Element::Watermark(Timestamp::from_millis(11)));
        publish(Element::End);

        let mut qb = QueryBuilder::new("sub");
        let src = qb.source("in", TopicSource::new(consumer, Duration::from_millis(10)));
        let out = qb.collect_sink("out", &src);
        qb.build().unwrap().run().join().unwrap();
        let got = out.take();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].metadata(), t.metadata());
    }

    #[test]
    fn stream_control_round_trips_over_both_broker_kinds() {
        let broker = Broker::new();
        broker.create_topic("bridge", TopicConfig::new(1)).unwrap();
        let consumer = broker.consumer("g", &["bridge"]).unwrap();
        round_trip(broker.producer(), consumer);
        assert_eq!(broker.consumer_lag("g", "bridge").unwrap(), 0);

        let broker = Broker::new();
        broker.create_topic("bridge", TopicConfig::new(1)).unwrap();
        let mut server = strata_net::BrokerServer::bind("127.0.0.1:0", broker.clone()).unwrap();
        let addr = server.local_addr().to_string();
        let producer = strata_net::RemoteProducer::connect(&addr).unwrap();
        let consumer = strata_net::RemoteConsumer::connect(&addr, "g", &["bridge"]).unwrap();
        round_trip(producer, consumer);
        assert_eq!(broker.consumer_lag("g", "bridge").unwrap(), 0);
        server.shutdown();
    }

    #[test]
    fn watermarks_drive_windows_across_the_bridge() {
        let broker = Broker::new();
        broker.create_topic("wm", TopicConfig::new(1)).unwrap();
        let mut publish = publisher(broker.producer(), "wm".into());
        for layer in 0..3u32 {
            let t = AmTuple::new(Timestamp::from_millis(layer as u64 * 100), 1, layer);
            publish(Element::Item(t));
            publish(Element::Watermark(Timestamp::from_millis(
                (layer as u64 + 1) * 100,
            )));
        }
        publish(Element::End);

        let consumer = broker.consumer("g", &["wm"]).unwrap();
        let mut qb = QueryBuilder::new("windows");
        let src = qb.source("in", TopicSource::new(consumer, Duration::from_millis(10)));
        let counts = qb.aggregate(
            "count",
            &src,
            WindowSpec::tumbling(100).unwrap(),
            |_: &AmTuple| 0u8,
            |_, bounds, items: &[AmTuple]| vec![(bounds.index, items.len())],
        );
        let out = qb.collect_sink("out", &counts);
        qb.build().unwrap().run().join().unwrap();
        assert_eq!(out.take(), vec![(0, 1), (1, 1), (2, 1)]);
    }

    #[test]
    fn independent_groups_both_receive_the_stream() {
        let broker = Broker::new();
        broker.create_topic("shared", TopicConfig::new(1)).unwrap();
        let mut publish = publisher(broker.producer(), "shared".into());
        publish(Element::Item(AmTuple::new(Timestamp::MIN, 1, 0)));
        publish(Element::End);

        for group in ["monitor-a", "monitor-b"] {
            let consumer = broker.consumer(group, &["shared"]).unwrap();
            let mut qb = QueryBuilder::new(group);
            let src = qb.source("in", TopicSource::new(consumer, Duration::from_millis(10)));
            let out = qb.collect_sink("out", &src);
            qb.build().unwrap().run().join().unwrap();
            assert_eq!(out.len(), 1, "group {group}");
        }
    }
}
