"""The idealized hardwired node controller.

Section 3.1: "we replace MAGIC's macropipeline with an idealized controller
that can process all protocol operations in zero time.  The only delays that
the ideal machine encounters are those due to contention for shared resources
(such as the processor bus, memory system, and network) and data transfer
delays.  We further assume an infinite depth for all network and memory
system queues."

The controller runs the same protocol engine as MAGIC, but a message is
processed the instant it arrives, handlers take zero cycles, directory lookup
is an instantaneous oracle, and nothing ever stalls on queue space.  Memory
accesses, processor-cache interventions and interface/data-transfer
latencies remain, as does contention for memory and the network.

Message intake and the outbound processor interface run in callback/state-
machine form on the event kernel (dispatch order identical to the original
coroutine loops); handler execution itself was always a plain synchronous
call.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..common.params import MachineConfig
from ..memory.controller import MemoryController, SubmitWhenReady
from ..network.mesh import NetworkPort
from ..protocol.coherence import Action, NodeProtocolEngine
from ..protocol.messages import Message, MessageType as MT, TRANSFER_TYPES
from ..sim.engine import Environment, Event, PENDING
from ..sim.queues import BoundedQueue
from ..stats.breakdown import NodeStats

__all__ = ["IdealController"]


class IdealController:
    """Zero-occupancy oracle controller for one node of the ideal machine."""

    def __init__(
        self,
        env: Environment,
        node_id: int,
        config: MachineConfig,
        engine: NodeProtocolEngine,
        memory: MemoryController,
        net_port: NetworkPort,
        stats: NodeStats,
    ):
        self.env = env
        self.node_id = node_id
        self.config = config
        self.engine = engine
        self.memory = memory
        self.net_port = net_port
        self.stats = stats
        self.lat = config.latencies
        self.name = f"ideal[{node_id}]"
        self.pi_in_q = BoundedQueue(env, None, name=f"pi.in[{node_id}]")
        self.pi_out_q = BoundedQueue(env, None, name=f"pi.out[{node_id}]")
        self._cpu_deliver: Callable[[Message], None] = lambda msg: None
        self._cache_busy: Callable[[float], None] = lambda cycles: None
        self.transfers = None  # TransferDomain, attached by the Node
        self.tracer = None     # Tracer (repro.stats.trace), attached by the Machine
        self.metrics = None    # MetricsRegistry (repro.stats.metrics), attached by the Machine
        # Serial intake/outbound state machines (one in-flight item each).
        self._pi_msg: Optional[Message] = None
        self._po_bundle = None
        self._po_start = 0.0
        self._on_pi_msg_cb = self._on_pi_msg
        self._pi_process_cb = self._pi_process
        self._on_ni_msg_cb = self._on_ni_msg
        self._on_po_bundle_cb = self._on_po_bundle
        self._po_after_wait_cb = self._po_after_wait
        self._po_after_pi_cb = self._po_after_pi
        self._po_deliver_cb = self._po_deliver
        self._writer_start_cb = self._writer_start
        env.call_soon(self._pi_next)
        env.call_soon(self._ni_next)
        env.call_soon(self._po_next)

    # -- wiring (same interface as MagicChip) ------------------------------------

    def set_cpu_deliver(self, fn: Callable[[Message], None]) -> None:
        self._cpu_deliver = fn

    def set_cache_busy(self, fn: Callable[[float], None]) -> None:
        self._cache_busy = fn

    def pi_submit(self, message: Message):
        return self.pi_in_q.put(message)

    def pi_submit_cb(self, message: Message,
                     callback: Callable[[], None]) -> None:
        self.pi_in_q.put_cb(message, callback)

    def pi_submit_drop(self, message: Message) -> None:
        self.pi_in_q.put_drop(message)

    # -- message intake (callback state machines) -----------------------------------

    def _pi_next(self) -> None:
        self.pi_in_q.get_cb(self._on_pi_msg_cb)

    def _on_pi_msg(self, message: Message) -> None:
        self._pi_msg = message
        self.env.call_later(self.lat.pi_inbound, self._pi_process_cb)

    def _pi_process(self) -> None:
        message = self._pi_msg
        self._pi_msg = None
        self._process(message)
        self._pi_next()

    def _ni_next(self) -> None:
        self.net_port.in_queue.get_cb(self._on_ni_msg_cb)

    def _on_ni_msg(self, message: Message) -> None:
        self._process(message)
        self._ni_next()

    def _process(self, message: Message) -> None:
        self.stats.messages_in += 1
        if message.mtype in TRANSFER_TYPES:
            self._execute_transfer(message)
            return
        for action in self.engine.process(message):
            self._execute(action)

    def _execute_transfer(self, message: Message) -> None:
        """Zero-occupancy block transfer: memory and network costs remain,
        controller processing takes no time."""
        env = self.env
        if message.mtype == MT.XFER_SEND:
            n_lines = self.transfers.start(message)
            receiver = message.requester

            def sender():
                for index in range(n_lines):
                    line_addr = message.line_addr + index * 128
                    request = self.memory.read(line_addr)
                    yield self.memory.submit(request)
                    out = Message(
                        MT.XFER_DATA, line_addr, self.node_id, receiver,
                        self.node_id, nbytes=message.nbytes, uid=message.uid,
                    )
                    yield self.net_port.send((out, request.data_event, None))

            env.process(sender(), name=f"ideal.xfer[{self.node_id}]")
        elif message.mtype == MT.XFER_DATA:
            last = self.transfers.line_arrived(message)
            wreq = self.memory.write(message.line_addr)
            self.memory.submit_drop(wreq)
            if last:
                self.transfers.complete(self.node_id, message.src)

    # -- zero-time action execution ----------------------------------------------------

    def _execute(self, action: Action) -> None:
        env = self.env
        self.stats.note_handler(action.handler, 0.0)
        metrics = self.metrics
        if metrics is not None:
            # Zero-width rows keep the label set symmetric with FLASH so
            # ``harness diff`` renders per-handler deltas side by side.
            metrics.handler_invocations.labels(self.node_id,
                                               action.handler).inc()
            metrics.handler_busy.labels(self.node_id, action.handler).add(0.0)
            metrics.handler_cost.labels(self.node_id, action.handler).add(0.0)
            metrics.busy_per_invocation.observe(0.0)
        tracer = self.tracer
        trace_ctx = (action.message.requester, action.message.line_addr) \
            if tracer is not None else None
        if tracer is not None:
            # Zero-occupancy handler: the span is instantaneous but keeps
            # the lifecycle visible (and the decomposition rows populated)
            # on the ideal machine too.
            tracer.pp_span(self.node_id, action.handler, action.message,
                           env._now, env._now)
        data_ready: Optional[Event] = None
        if action.cache_retrieve:
            data_ready = env.timeout(self.lat.intervention_data)
            self._cache_busy(self.lat.cache_state_retrieve +
                             self.lat.cache_data_retrieve)
        elif action.cache_touched:
            self._cache_busy(self.lat.cache_state_retrieve)
        if action.needs_memory_data:
            request = self.memory.read(action.message.line_addr)
            request.trace_ctx = trace_ctx
            self.memory.submit_drop(request)  # unbounded queue: never blocks
            data_ready = request.data_event
        if action.writes_memory:
            wreq = self.memory.write(action.message.line_addr)
            wreq.trace_ctx = trace_ctx
            if data_ready is None:
                self.memory.submit_drop(wreq)
            else:
                # The old one-shot ``writer`` process started one dispatch
                # later (process-start hop); the call_soon mirrors it.
                env.call_soon(self._writer_start_cb, (wreq, data_ready))
        for out in action.sends:
            attached = data_ready if out.carries_data else None
            self.net_port.send_drop((out, attached, None))
        if action.cpu_deliver is not None:
            self.pi_out_q.put_drop((action.cpu_deliver, data_ready, None))

    def _writer_start(self, pair) -> None:
        request, data_ready = pair
        if data_ready._value is not PENDING:
            self.memory.submit_drop(request)
        else:
            data_ready.callbacks.append(SubmitWhenReady(self.memory, request))

    # -- processor interface, outbound (callback state machine) --------------------------

    def _po_next(self) -> None:
        self.pi_out_q.get_cb(self._on_po_bundle_cb)

    def _on_po_bundle(self, bundle) -> None:
        self._po_bundle = bundle
        data_ready = bundle[1]
        if self.tracer is not None:
            self._po_start = self.env._now
        if data_ready is not None and data_ready._value is PENDING:
            data_ready.callbacks.append(self._po_after_wait_cb)
            return
        self._po_after_wait(None)

    def _po_after_wait(self, _event=None) -> None:
        self.env.call_later(self.lat.pi_outbound, self._po_after_pi_cb)

    def _po_after_pi(self) -> None:
        self.env.call_later(self.lat.pi_outbound_bus_transit,
                            self._po_deliver_cb)

    def _po_deliver(self) -> None:
        message, _data_ready, done = self._po_bundle
        self._po_bundle = None
        tracer = self.tracer
        if tracer is not None:
            tracer.pi_out_span(self.node_id, message, self._po_start,
                               self.env._now)
        self._cpu_deliver(message)
        if done is not None and not done.triggered:
            done.succeed()
        for action in self.engine.replay_stable(message.line_addr):
            self._execute(action)
        self._po_next()
