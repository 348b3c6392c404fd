"""Table 2 dataset: native-code share of the top 20 open-source Android
applications.

The paper measured lines of C/C++ versus total lines, and the share of
execution time spent in native code under a described runtime behaviour,
for the top-20 F-Droid applications.  The survey itself is data, not an
algorithm; this module carries the dataset and the derived statistics the
paper quotes ("around one third of the 20 applications include native
codes more than 50% and spend more than 20% of the total execution time to
execute them").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True)
class AndroidApp:
    name: str
    version: str
    description: str
    c_cpp_loc: int
    total_loc: int
    runtime_description: str
    native_exec_ratio_pct: float   # share of execution time in native code

    @property
    def native_loc_ratio_pct(self) -> float:
        if self.total_loc == 0:
            return 0.0
        return 100.0 * self.c_cpp_loc / self.total_loc


# Table 2 of the paper, verbatim.
TOP20_APPS: List[AndroidApp] = [
    AndroidApp("AdAway", "3.0.2", "AD blocker", 132_882, 310_321,
               "Read articles with ads", 21.54),
    AndroidApp("Orbot", "14.1.4-noPIE", "Tor client", 675_851, 969_243,
               "Web browsing with Tor", 61.98),
    AndroidApp("Firefox", "40.0", "Web browser", 8_094_678, 15_509_820,
               "Web browsing 4 websites", 88.27),
    AndroidApp("VLC Player", "1.5.1.1", "Media player", 3_584_526,
               6_433_726, "Play a movie w/o HW decoder", 92.34),
    AndroidApp("Open Camera", "1.2", "Camera", 0, 10_336, "N/A", 0.0),
    AndroidApp("osmAnd", "2.1.1", "Map/Navigation", 53_695, 450_573,
               "Search nearby places", 23.86),
    AndroidApp("Syncthing", "0.5.0-beta5", "File synchronizer", 0, 59_461,
               "N/A", 0.0),
    AndroidApp("AFWall+", "1.3.4.1", "Network traffic controller", 1_514,
               59_741, "Web browsing 4 websites", 0.30),
    AndroidApp("2048", "1.95", "Puzzle game", 0, 2_232, "N/A", 0.0),
    AndroidApp("K-9 Mail", "4.804", "Email client", 0, 96_588, "N/A", 0.0),
    AndroidApp("PDF Reader", "0.4.0", "PDF viewer", 334_489, 594_434,
               "Read a book with zoom", 28.30),
    AndroidApp("ownCloud", "1.5.8", "File synchronizer", 0, 77_141,
               "N/A", 0.0),
    AndroidApp("DAVdroid", "0.6.2", "Private data synchronizer", 0, 7_435,
               "N/A", 0.0),
    AndroidApp("Barcode Scanner", "4.7.0", "2D/QR code scanner", 0,
               50_201, "N/A", 0.0),
    AndroidApp("SatStat", "2", "Sensor status monitor", 0, 7_480,
               "N/A", 0.0),
    AndroidApp("Cool Reader", "3.1.2-72", "Ebook reader", 491_556,
               681_001, "Read a book", 97.73),
    AndroidApp("OS Monitor", "3.4.1.0", "OS monitor", 5_902, 74_513,
               "Read network and process info.", 4.38),
    AndroidApp("Orweb", "0.6.1", "Web browser", 0, 14_124, "N/A", 0.0),
    AndroidApp("PPSSPP", "1.0.1.0", "PSP emulator", 1_304_973, 1_438_322,
               "Play a game for 1 minute", 97.68),
    AndroidApp("Adblock Plus", "1.1.3", "AD blocker", 2_102, 63_779,
               "Read articles with ads", 22.83),
]

# The VLC row has a second runtime behaviour in the paper.
VLC_HW_DECODER_RATIO_PCT = 23.05


def apps_with_majority_native_code(
        apps: Optional[List[AndroidApp]] = None) -> List[AndroidApp]:
    """Apps whose C/C++ line share exceeds 50%."""
    apps = TOP20_APPS if apps is None else apps
    return [a for a in apps if a.native_loc_ratio_pct > 50.0]


def apps_with_heavy_native_runtime(
        apps: Optional[List[AndroidApp]] = None,
        threshold_pct: float = 20.0) -> List[AndroidApp]:
    """Apps spending more than ``threshold_pct`` of execution natively."""
    apps = TOP20_APPS if apps is None else apps
    return [a for a in apps if a.native_exec_ratio_pct > threshold_pct]


def survey_summary() -> dict:
    """The paper's headline claim about Table 2: roughly a third of the
    apps are >50% native code and spend >20% of their time in it."""
    majority = apps_with_majority_native_code()
    heavy = apps_with_heavy_native_runtime()
    both = [a for a in majority if a in heavy]
    return {
        "total_apps": len(TOP20_APPS),
        "majority_native_loc": len(majority),
        "heavy_native_runtime": len(heavy),
        "both": len(both),
        "fraction_both": len(both) / len(TOP20_APPS),
    }
