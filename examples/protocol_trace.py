#!/usr/bin/env python3
"""Watch the HIDE protocol happen, frame by frame (paper Figure 2).

One HIDE phone (listening for mDNS) joins a BSS over the air, reports
its ports, suspends, and sleeps through useless SSDP traffic until an
mDNS announcement flips its BTIM bit. Every non-beacon frame on the
medium is printed; the interesting DTIM beacons are annotated.

Run:  python examples/protocol_trace.py
"""

from repro.ap import AccessPoint, ApConfig
from repro.dot11.management import Beacon
from repro.dot11.mac_address import MacAddress
from repro.energy import NEXUS_ONE
from repro.net.packet import build_broadcast_udp_packet
from repro.sim import Medium, ProtocolSniffer, Simulator
from repro.station import Client, ClientConfig, ClientPolicy

AP_MAC = MacAddress.from_string("02:aa:00:00:00:01")
LAN = MacAddress.from_string("02:bb:00:00:00:99")


def main() -> None:
    sim = Simulator()
    medium = Medium(sim)
    ap = AccessPoint(AP_MAC, medium, ApConfig(ssid="demo"))
    medium.attach(ap)
    sniffer = ProtocolSniffer()
    medium.attach(sniffer)

    phone = Client(
        MacAddress.station(1), medium, AP_MAC,
        ClientConfig(
            policy=ClientPolicy.HIDE,
            profile=NEXUS_ONE.with_overrides(wakelock_timeout_s=0.5),
        ),
    )
    medium.attach(phone)
    phone.open_port(5353)
    sim.schedule(0.01, phone.request_association)

    # Useless SSDP at 0.35 s and 0.60 s; useful mDNS at 0.85 s.
    for time, port in ((0.35, 1900), (0.60, 1900), (0.85, 5353)):
        packet = build_broadcast_udp_packet(port, b"announce")
        sim.schedule(time, lambda p=packet: ap.deliver_from_ds(p, LAN))

    sim.run(until=2.2)

    print("Every frame on the air (beacons: DTIMs with state changes only):\n")
    previous_btim = None
    for captured in sniffer.captures:
        frame = captured.frame
        if isinstance(frame, Beacon):
            btim = (
                tuple(sorted(frame.btim.aids_with_useful_broadcast))
                if frame.btim
                else None
            )
            if btim == previous_btim and not frame.tim.group_traffic_buffered:
                continue  # quiet DTIM, nothing changed
            previous_btim = btim
        print(captured.describe())

    print(
        f"\nOutcome: the phone woke {phone.power.counters.resumes} time(s), "
        f"received {phone.counters.useful_frames_received} useful frame(s), "
        f"ignored {phone.counters.broadcast_frames_ignored} useless one(s), "
        f"and spent {phone.suspend_fraction():.0%} of the run suspended."
    )


if __name__ == "__main__":
    main()
