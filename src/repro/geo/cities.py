"""Embedded world-city database.

The paper's geolocation step classifies each replica to a city, using city
population as the discriminative side channel ("our geolocation criterion
boils down into picking the largest city in that disk", Sec. 2.1).  That
requires a city gazetteer with coordinates and populations.

The table below embeds ~330 cities: the world's most populous metropolitan
areas plus the secondary cities where Internet infrastructure concentrates
(IXP/datacenter towns such as Ashburn, Reston, Secaucus, Frankfurt, and
Amsterdam).  Populations are in thousands of inhabitants (mid-2010s, matching the
paper's census epoch); like real gazetteers, the figures mix metro and
municipal scopes — notably the US mid-Atlantic cluster uses municipal
values, which is what makes Philadelphia outrank Washington and drive
the paper's documented Ashburn-as-Philadelphia misclassification.  Absolute precision is unimportant — what matters for the
reproduction is the *relative ordering* (e.g. Philadelphia ≈ 33x more
populous than Ashburn, which drives the paper's one documented
misclassification).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .coords import (
    GeoPoint,
    distances_to_point_km,
    pairwise_distances_from_radians,
    unit_vectors,
)
from .disks import Disk


@dataclass(frozen=True)
class City:
    """A city with location and population.

    ``population`` is in thousands of inhabitants.  Cities are uniquely
    identified by ``(name, country)``.
    """

    name: str
    country: str
    location: GeoPoint
    population: float

    @property
    def key(self) -> Tuple[str, str]:
        return (self.name, self.country)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name},{self.country}"


# (name, ISO-3166 alpha-2 country, lat, lon, metro population in thousands)
_CITY_ROWS: List[Tuple[str, str, float, float, float]] = [
    # --- North America ---
    ("New York", "US", 40.7128, -74.0060, 8400),
    ("Los Angeles", "US", 34.0522, -118.2437, 13200),
    ("Chicago", "US", 41.8781, -87.6298, 9500),
    ("Dallas", "US", 32.7767, -96.7970, 7200),
    ("Houston", "US", 29.7604, -95.3698, 6900),
    ("Washington", "US", 38.9072, -77.0369, 680),
    ("Miami", "US", 25.7617, -80.1918, 6100),
    ("Philadelphia", "US", 39.9526, -75.1652, 1570),
    ("Atlanta", "US", 33.7490, -84.3880, 5900),
    ("Phoenix", "US", 33.4484, -112.0740, 4850),
    ("Boston", "US", 42.3601, -71.0589, 670),
    ("San Francisco", "US", 37.7749, -122.4194, 4700),
    ("Detroit", "US", 42.3314, -83.0458, 4300),
    ("Seattle", "US", 47.6062, -122.3321, 3980),
    ("Minneapolis", "US", 44.9778, -93.2650, 3650),
    ("San Diego", "US", 32.7157, -117.1611, 3300),
    ("Tampa", "US", 27.9506, -82.4572, 3100),
    ("Denver", "US", 39.7392, -104.9903, 2960),
    ("St. Louis", "US", 38.6270, -90.1994, 2800),
    ("Baltimore", "US", 39.2904, -76.6122, 620),
    ("Charlotte", "US", 35.2271, -80.8431, 2600),
    ("Portland", "US", 45.5152, -122.6784, 2500),
    ("San Antonio", "US", 29.4241, -98.4936, 2500),
    ("Orlando", "US", 28.5383, -81.3792, 2500),
    ("Sacramento", "US", 38.5816, -121.4944, 2350),
    ("Pittsburgh", "US", 40.4406, -79.9959, 303),
    ("Las Vegas", "US", 36.1699, -115.1398, 2250),
    ("Cincinnati", "US", 39.1031, -84.5120, 2220),
    ("Austin", "US", 30.2672, -97.7431, 2170),
    ("Kansas City", "US", 39.0997, -94.5786, 2140),
    ("Columbus", "US", 39.9612, -82.9988, 2080),
    ("Indianapolis", "US", 39.7684, -86.1581, 2050),
    ("Cleveland", "US", 41.4993, -81.6944, 2050),
    ("San Jose", "US", 37.3382, -121.8863, 2000),
    ("Nashville", "US", 36.1627, -86.7816, 1930),
    ("Salt Lake City", "US", 40.7608, -111.8910, 1230),
    ("Raleigh", "US", 35.7796, -78.6382, 1390),
    ("Milwaukee", "US", 43.0389, -87.9065, 1570),
    ("Jacksonville", "US", 30.3322, -81.6557, 1530),
    ("Oklahoma City", "US", 35.4676, -97.5164, 1400),
    ("Memphis", "US", 35.1495, -90.0490, 1340),
    ("Louisville", "US", 38.2527, -85.7585, 1290),
    ("Richmond", "US", 37.5407, -77.4360, 220),
    ("New Orleans", "US", 29.9511, -90.0715, 1270),
    ("Buffalo", "US", 42.8864, -78.8784, 258),
    ("Albuquerque", "US", 35.0844, -106.6504, 920),
    ("Omaha", "US", 41.2565, -95.9345, 940),
    ("Honolulu", "US", 21.3069, -157.8583, 980),
    ("El Paso", "US", 31.7619, -106.4850, 840),
    ("Boise", "US", 43.6150, -116.2023, 710),
    ("Des Moines", "US", 41.5868, -93.6250, 640),
    ("Madison", "US", 43.0731, -89.4012, 660),
    ("Spokane", "US", 47.6588, -117.4260, 570),
    ("Anchorage", "US", 61.2181, -149.9003, 400),
    ("Reno", "US", 39.5296, -119.8138, 460),
    ("Billings", "US", 45.7833, -108.5007, 180),
    ("Ashburn", "US", 39.0438, -77.4874, 48),
    ("Reston", "US", 38.9586, -77.3570, 62),
    ("Secaucus", "US", 40.7895, -74.0565, 21),
    ("Newark", "US", 40.7357, -74.1724, 282),
    ("Santa Clara", "US", 37.3541, -121.9552, 130),
    ("Palo Alto", "US", 37.4419, -122.1430, 67),
    ("Mountain View", "US", 37.3861, -122.0839, 82),
    ("Cambridge", "US", 42.3736, -71.1097, 118),
    ("Princeton", "US", 40.3573, -74.6672, 31),
    ("Durham", "US", 35.9940, -78.8986, 280),
    ("Champaign", "US", 40.1164, -88.2434, 88),
    ("Boulder", "US", 40.0150, -105.2705, 108),
    ("Ann Arbor", "US", 42.2808, -83.7430, 121),
    ("Toronto", "CA", 43.6532, -79.3832, 6200),
    ("Montreal", "CA", 45.5017, -73.5673, 4200),
    ("Vancouver", "CA", 49.2827, -123.1207, 2600),
    ("Calgary", "CA", 51.0447, -114.0719, 1480),
    ("Ottawa", "CA", 45.4215, -75.6972, 1430),
    ("Edmonton", "CA", 53.5461, -113.4938, 1420),
    ("Winnipeg", "CA", 49.8951, -97.1384, 830),
    ("Quebec City", "CA", 46.8139, -71.2080, 810),
    ("Halifax", "CA", 44.6488, -63.5752, 440),
    ("Mexico City", "MX", 19.4326, -99.1332, 21800),
    ("Guadalajara", "MX", 20.6597, -103.3496, 5200),
    ("Monterrey", "MX", 25.6866, -100.3161, 4700),
    ("Tijuana", "MX", 32.5149, -117.0382, 2100),
    ("Queretaro", "MX", 20.5888, -100.3899, 1400),
    ("Panama City", "PA", 8.9824, -79.5199, 1900),
    ("San Jose CR", "CR", 9.9281, -84.0907, 1400),
    ("Guatemala City", "GT", 14.6349, -90.5069, 2900),
    ("Havana", "CU", 23.1136, -82.3666, 2100),
    ("Santo Domingo", "DO", 18.4861, -69.9312, 3300),
    ("San Juan", "PR", 18.4655, -66.1057, 2300),
    ("Kingston", "JM", 17.9712, -76.7936, 1200),
    # --- South America ---
    ("Sao Paulo", "BR", -23.5505, -46.6333, 21300),
    ("Rio de Janeiro", "BR", -22.9068, -43.1729, 12800),
    ("Buenos Aires", "AR", -34.6037, -58.3816, 15100),
    ("Lima", "PE", -12.0464, -77.0428, 10400),
    ("Bogota", "CO", 4.7110, -74.0721, 10200),
    ("Santiago", "CL", -33.4489, -70.6693, 6700),
    ("Belo Horizonte", "BR", -19.9167, -43.9345, 5900),
    ("Brasilia", "BR", -15.8267, -47.9218, 4300),
    ("Porto Alegre", "BR", -30.0346, -51.2177, 4300),
    ("Recife", "BR", -8.0476, -34.8770, 4000),
    ("Fortaleza", "BR", -3.7319, -38.5267, 4000),
    ("Salvador", "BR", -12.9777, -38.5016, 3900),
    ("Curitiba", "BR", -25.4284, -49.2733, 3600),
    ("Campinas", "BR", -22.9099, -47.0626, 3200),
    ("Medellin", "CO", 6.2442, -75.5812, 3900),
    ("Cali", "CO", 3.4516, -76.5320, 2800),
    ("Caracas", "VE", 10.4806, -66.9036, 2900),
    ("Quito", "EC", -0.1807, -78.4678, 1900),
    ("Guayaquil", "EC", -2.1710, -79.9224, 3000),
    ("Montevideo", "UY", -34.9011, -56.1645, 1700),
    ("Asuncion", "PY", -25.2637, -57.5759, 2300),
    ("La Paz", "BO", -16.4897, -68.1193, 1800),
    ("Cordoba", "AR", -31.4201, -64.1888, 1600),
    # --- Europe ---
    ("London", "GB", 51.5074, -0.1278, 14000),
    ("Paris", "FR", 48.8566, 2.3522, 12500),
    ("Madrid", "ES", 40.4168, -3.7038, 6600),
    ("Barcelona", "ES", 41.3851, 2.1734, 5500),
    ("Milan", "IT", 45.4642, 9.1900, 5200),
    ("Rome", "IT", 41.9028, 12.4964, 4300),
    ("Berlin", "DE", 52.5200, 13.4050, 4500),
    ("Hamburg", "DE", 53.5511, 9.9937, 3200),
    ("Munich", "DE", 48.1351, 11.5820, 2900),
    ("Frankfurt", "DE", 50.1109, 8.6821, 2700),
    ("Cologne", "DE", 50.9375, 6.9603, 2100),
    ("Dusseldorf", "DE", 51.2277, 6.7735, 1550),
    ("Stuttgart", "DE", 48.7758, 9.1829, 2700),
    ("Athens", "GR", 37.9838, 23.7275, 3750),
    ("Lisbon", "PT", 38.7223, -9.1393, 2900),
    ("Porto", "PT", 41.1579, -8.6291, 1750),
    ("Manchester", "GB", 53.4808, -2.2426, 2800),
    ("Birmingham", "GB", 52.4862, -1.8904, 2900),
    ("Leeds", "GB", 53.8008, -1.5491, 1900),
    ("Glasgow", "GB", 55.8642, -4.2518, 1800),
    ("Edinburgh", "GB", 55.9533, -3.1883, 900),
    ("Dublin", "IE", 53.3498, -6.2603, 1900),
    ("Brussels", "BE", 50.8503, 4.3517, 2100),
    ("Antwerp", "BE", 51.2194, 4.4025, 1050),
    ("Amsterdam", "NL", 52.3676, 4.9041, 2480),
    ("Rotterdam", "NL", 51.9244, 4.4777, 1000),
    ("The Hague", "NL", 52.0705, 4.3007, 700),
    ("Eindhoven", "NL", 51.4416, 5.4697, 420),
    ("Luxembourg", "LU", 49.6116, 6.1319, 600),
    ("Vienna", "AT", 48.2082, 16.3738, 2600),
    ("Zurich", "CH", 47.3769, 8.5417, 1400),
    ("Geneva", "CH", 46.2044, 6.1432, 600),
    ("Bern", "CH", 46.9480, 7.4474, 420),
    ("Vaduz", "LI", 47.1410, 9.5209, 6),
    ("Prague", "CZ", 50.0755, 14.4378, 2100),
    ("Warsaw", "PL", 52.2297, 21.0122, 3100),
    ("Krakow", "PL", 50.0647, 19.9450, 1700),
    ("Wroclaw", "PL", 51.1079, 17.0385, 1200),
    ("Poznan", "PL", 52.4064, 16.9252, 1000),
    ("Gdansk", "PL", 54.3520, 18.6466, 1100),
    ("Budapest", "HU", 47.4979, 19.0402, 3000),
    ("Bucharest", "RO", 44.4268, 26.1025, 2200),
    ("Cluj-Napoca", "RO", 46.7712, 23.6236, 410),
    ("Sofia", "BG", 42.6977, 23.3219, 1700),
    ("Belgrade", "RS", 44.7866, 20.4489, 1700),
    ("Zagreb", "HR", 45.8150, 15.9819, 1100),
    ("Ljubljana", "SI", 46.0569, 14.5058, 540),
    ("Bratislava", "SK", 48.1486, 17.1077, 660),
    ("Copenhagen", "DK", 55.6761, 12.5683, 2050),
    ("Stockholm", "SE", 59.3293, 18.0686, 2350),
    ("Gothenburg", "SE", 57.7089, 11.9746, 1030),
    ("Oslo", "NO", 59.9139, 10.7522, 1540),
    ("Helsinki", "FI", 60.1699, 24.9384, 1490),
    ("Tallinn", "EE", 59.4370, 24.7536, 610),
    ("Riga", "LV", 56.9496, 24.1052, 1000),
    ("Vilnius", "LT", 54.6872, 25.2797, 810),
    ("Reykjavik", "IS", 64.1466, -21.9426, 230),
    ("Moscow", "RU", 55.7558, 37.6173, 17100),
    ("Saint Petersburg", "RU", 59.9311, 30.3609, 5400),
    ("Novosibirsk", "RU", 55.0084, 82.9357, 1600),
    ("Yekaterinburg", "RU", 56.8389, 60.6057, 1500),
    ("Kazan", "RU", 55.8304, 49.0661, 1300),
    ("Kiev", "UA", 50.4501, 30.5234, 3400),
    ("Kharkiv", "UA", 49.9935, 36.2304, 1450),
    ("Minsk", "BY", 53.9006, 27.5590, 2000),
    ("Istanbul", "TR", 41.0082, 28.9784, 14800),
    ("Ankara", "TR", 39.9334, 32.8597, 5300),
    ("Izmir", "TR", 38.4237, 27.1428, 4300),
    ("Lyon", "FR", 45.7640, 4.8357, 2300),
    ("Marseille", "FR", 43.2965, 5.3698, 1760),
    ("Toulouse", "FR", 43.6047, 1.4442, 1350),
    ("Nice", "FR", 43.7102, 7.2620, 1000),
    ("Bordeaux", "FR", 44.8378, -0.5792, 1200),
    ("Nantes", "FR", 47.2184, -1.5536, 950),
    ("Strasbourg", "FR", 48.5734, 7.7521, 790),
    ("Roubaix", "FR", 50.6927, 3.1746, 96),
    ("Lille", "FR", 50.6292, 3.0573, 1200),
    ("Turin", "IT", 45.0703, 7.6869, 1700),
    ("Naples", "IT", 40.8518, 14.2681, 3100),
    ("Bologna", "IT", 44.4949, 11.3426, 1000),
    ("Valencia", "ES", 39.4699, -0.3763, 1600),
    ("Seville", "ES", 37.3891, -5.9845, 1500),
    ("Bilbao", "ES", 43.2630, -2.9350, 1000),
    ("Nicosia", "CY", 35.1856, 33.3823, 330),
    ("Valletta", "MT", 35.8989, 14.5146, 210),
    # --- Africa & Middle East ---
    ("Cairo", "EG", 30.0444, 31.2357, 20000),
    ("Lagos", "NG", 6.5244, 3.3792, 13900),
    ("Kinshasa", "CD", -4.4419, 15.2663, 12000),
    ("Johannesburg", "ZA", -26.2041, 28.0473, 9600),
    ("Cape Town", "ZA", -33.9249, 18.4241, 4000),
    ("Durban", "ZA", -29.8587, 31.0218, 3400),
    ("Nairobi", "KE", -1.2921, 36.8219, 4400),
    ("Mombasa", "KE", -4.0435, 39.6682, 1200),
    ("Addis Ababa", "ET", 9.0300, 38.7400, 4400),
    ("Dar es Salaam", "TZ", -6.7924, 39.2083, 5100),
    ("Accra", "GH", 5.6037, -0.1870, 2500),
    ("Abidjan", "CI", 5.3600, -4.0083, 4700),
    ("Dakar", "SN", 14.7167, -17.4677, 3100),
    ("Casablanca", "MA", 33.5731, -7.5898, 3700),
    ("Algiers", "DZ", 36.7538, 3.0588, 2700),
    ("Tunis", "TN", 36.8065, 10.1815, 2300),
    ("Kampala", "UG", 0.3476, 32.5825, 3300),
    ("Kigali", "RW", -1.9441, 30.0619, 1100),
    ("Luanda", "AO", -8.8390, 13.2894, 7800),
    ("Maputo", "MZ", -25.9692, 32.5732, 1100),
    ("Tel Aviv", "IL", 32.0853, 34.7818, 3800),
    ("Jerusalem", "IL", 31.7683, 35.2137, 1100),
    ("Haifa", "IL", 32.7940, 34.9896, 920),
    ("Amman", "JO", 31.9454, 35.9284, 4000),
    ("Beirut", "LB", 33.8938, 35.5018, 2400),
    ("Riyadh", "SA", 24.7136, 46.6753, 6900),
    ("Jeddah", "SA", 21.4858, 39.1925, 4200),
    ("Dubai", "AE", 25.2048, 55.2708, 2900),
    ("Abu Dhabi", "AE", 24.4539, 54.3773, 1500),
    ("Doha", "QA", 25.2854, 51.5310, 2400),
    ("Kuwait City", "KW", 29.3759, 47.9774, 3100),
    ("Manama", "BH", 26.2285, 50.5860, 650),
    ("Muscat", "OM", 23.5880, 58.3829, 1500),
    ("Tehran", "IR", 35.6892, 51.3890, 9000),
    ("Baghdad", "IQ", 33.3152, 44.3661, 7200),
    # --- Asia ---
    ("Tokyo", "JP", 35.6762, 139.6503, 37400),
    ("Osaka", "JP", 34.6937, 135.5023, 19300),
    ("Nagoya", "JP", 35.1815, 136.9066, 9500),
    ("Fukuoka", "JP", 33.5904, 130.4017, 5500),
    ("Sapporo", "JP", 43.0618, 141.3545, 2600),
    ("Seoul", "KR", 37.5665, 126.9780, 25600),
    ("Busan", "KR", 35.1796, 129.0756, 3400),
    ("Shanghai", "CN", 31.2304, 121.4737, 27000),
    ("Beijing", "CN", 39.9042, 116.4074, 20400),
    ("Guangzhou", "CN", 23.1291, 113.2644, 13300),
    ("Shenzhen", "CN", 22.5431, 114.0579, 12400),
    ("Chengdu", "CN", 30.5728, 104.0668, 9100),
    ("Chongqing", "CN", 29.4316, 106.9123, 15300),
    ("Tianjin", "CN", 39.3434, 117.3616, 13200),
    ("Wuhan", "CN", 30.5928, 114.3055, 8400),
    ("Hangzhou", "CN", 30.2741, 120.1551, 7600),
    ("Xian", "CN", 34.3416, 108.9398, 7100),
    ("Nanjing", "CN", 32.0603, 118.7969, 8300),
    ("Hong Kong", "HK", 22.3193, 114.1694, 7400),
    ("Taipei", "TW", 25.0330, 121.5654, 7000),
    ("Kaohsiung", "TW", 22.6273, 120.3014, 2770),
    ("Macau", "MO", 22.1987, 113.5439, 650),
    ("Singapore", "SG", 1.3521, 103.8198, 5600),
    ("Kuala Lumpur", "MY", 3.1390, 101.6869, 7600),
    ("Jakarta", "ID", -6.2088, 106.8456, 31000),
    ("Surabaya", "ID", -7.2575, 112.7521, 6500),
    ("Bandung", "ID", -6.9175, 107.6191, 8000),
    ("Bangkok", "TH", 13.7563, 100.5018, 15000),
    ("Manila", "PH", 14.5995, 120.9842, 13500),
    ("Cebu", "PH", 10.3157, 123.8854, 2900),
    ("Ho Chi Minh City", "VN", 10.8231, 106.6297, 8400),
    ("Hanoi", "VN", 21.0278, 105.8342, 7600),
    ("Phnom Penh", "KH", 11.5564, 104.9282, 2100),
    ("Yangon", "MM", 16.8661, 96.1951, 5200),
    ("Dhaka", "BD", 23.8103, 90.4125, 19600),
    ("Chittagong", "BD", 22.3569, 91.7832, 4900),
    ("Mumbai", "IN", 19.0760, 72.8777, 23600),
    ("Delhi", "IN", 28.7041, 77.1025, 28500),
    ("Bangalore", "IN", 12.9716, 77.5946, 11400),
    ("Hyderabad", "IN", 17.3850, 78.4867, 9500),
    ("Chennai", "IN", 13.0827, 80.2707, 10500),
    ("Kolkata", "IN", 22.5726, 88.3639, 14700),
    ("Pune", "IN", 18.5204, 73.8567, 6500),
    ("Ahmedabad", "IN", 23.0225, 72.5714, 7700),
    ("Karachi", "PK", 24.8607, 67.0011, 15400),
    ("Lahore", "PK", 31.5204, 74.3587, 11100),
    ("Islamabad", "PK", 33.6844, 73.0479, 1100),
    ("Colombo", "LK", 6.9271, 79.8612, 2300),
    ("Kathmandu", "NP", 27.7172, 85.3240, 1400),
    ("Almaty", "KZ", 43.2220, 76.8512, 1800),
    ("Tashkent", "UZ", 41.2995, 69.2401, 2400),
    ("Baku", "AZ", 40.4093, 49.8671, 2300),
    ("Tbilisi", "GE", 41.7151, 44.8271, 1100),
    ("Yerevan", "AM", 40.1792, 44.4991, 1080),
    ("Ulaanbaatar", "MN", 47.8864, 106.9057, 1400),
    # --- Oceania ---
    ("Sydney", "AU", -33.8688, 151.2093, 5200),
    ("Melbourne", "AU", -37.8136, 144.9631, 5000),
    ("Brisbane", "AU", -27.4698, 153.0251, 2500),
    ("Perth", "AU", -31.9505, 115.8605, 2100),
    ("Adelaide", "AU", -34.9285, 138.6007, 1360),
    ("Canberra", "AU", -35.2809, 149.1300, 430),
    ("Auckland", "NZ", -36.8485, 174.7633, 1650),
    ("Wellington", "NZ", -41.2866, 174.7756, 420),
    ("Christchurch", "NZ", -43.5321, 172.6362, 400),
    ("Suva", "FJ", -18.1416, 178.4419, 180),
]


#: Disks per comparison block of :meth:`DiskTables.classify`; bounds the
#: ``(disks, n_cities)`` temporary to about 2 MB at the default gazetteer.
_CLASSIFY_BLOCK = 1024


class DiskTables:
    """Per-center sorted city tables: classify many center-anchored disks at once.

    Built from a ``(n_cities, n_centers)`` city-to-center distance matrix
    and the prior weights ``population ** population_exponent``.  Row *c*
    of each ``(n_centers, n_cities)`` table describes center *c*, cities
    nearest first (a stable sort: equal distances keep the lower city
    index first):

    * ``order`` — the city indices in that order;
    * ``sorted_km`` — their distances.  A disk's inside set
      (``distance <= radius + 1e-9``) is therefore a prefix of ``order``,
      and its length ``count`` is one comparison count;
    * ``best`` — the running winner of each prefix: the highest weight,
      lowest city index among equal weights (a running minimum of that
      rank key), which is ``np.argmax``'s choice over the inside set in
      index order;
    * ``mass`` — the running weight total of each prefix.

    ``mass`` is exact whenever the weights are integers whose total stays
    below 2**53 (the population prior at exponents 1 and 2): every
    partial sum is then an exact integer, so no summation order can
    change its bits, and it equals the index-order ``weights.sum()`` of
    :func:`repro.core.geolocation.classify_disk`.  For any other weights
    (exponent 1.5, say) the total is summed per disk over the inside set
    in index order instead.  At exponent 0 the uniform prior picks the
    city nearest the center, ``order[c, 0]``, with confidence
    ``1 / count``.
    """

    def __init__(self, center_distances: np.ndarray, weights: np.ndarray, nearest: bool) -> None:
        self.weights = weights
        self.nearest = nearest
        distances = np.ascontiguousarray(center_distances.T)
        self.order = np.argsort(distances, axis=1, kind="stable")
        self.sorted_km = np.take_along_axis(distances, self.order, axis=1)
        n_cities = len(weights)
        by_rank = np.lexsort((np.arange(n_cities), -weights))
        rank = np.empty(n_cities, dtype=np.int64)
        rank[by_rank] = np.arange(n_cities)
        self.best = by_rank[np.minimum.accumulate(rank[self.order], axis=1)]
        self.mass = np.cumsum(weights[self.order], axis=1)
        self.exact_mass = bool(
            np.array_equal(weights, np.floor(weights)) and weights.sum() < 2.0**53
        )
        for table in (self.order, self.sorted_km, self.best, self.mass):
            table.setflags(write=False)

    def classify(self, centers, radii_km) -> Tuple[np.ndarray, np.ndarray]:
        """``(city index, confidence)`` of every disk ``(centers[j], radii_km[j])``.

        The same answer as :func:`repro.core.geolocation.classify_disk`
        with the :func:`~repro.core.geolocation.classify_nearest`
        fallback (confidence 0) when no city lies inside, bit for bit.
        """
        centers = np.asarray(centers, dtype=np.int64)
        radii = np.asarray(radii_km, dtype=np.float64)
        count = np.empty(len(centers), dtype=np.int64)
        for start in range(0, len(centers), _CLASSIFY_BLOCK):
            block = slice(start, start + _CLASSIFY_BLOCK)
            inside = self.sorted_km[centers[block]] <= (radii[block] + 1e-9)[:, None]
            count[block] = inside.sum(axis=1)
        found = count > 0
        confidence = np.zeros(len(centers))
        if self.nearest:
            cities = self.order[centers, 0]
            np.divide(1.0, count, out=confidence, where=found)
            return cities, confidence
        last = np.maximum(count - 1, 0)
        cities = np.where(found, self.best[centers, last], self.order[centers, 0])
        if self.exact_mass:
            total = self.mass[centers, last]
        else:
            total = np.array(
                [
                    self.weights[np.sort(self.order[c, :n])].sum() if n else 1.0
                    for c, n in zip(centers.tolist(), count.tolist())
                ]
            )
        np.divide(self.weights[cities], total, out=confidence, where=found)
        return cities, confidence


class CityDB:
    """In-memory gazetteer with vectorized spatial queries.

    The database is immutable after construction; coordinate and population
    arrays are cached so disk-membership queries (the inner loop of the
    geolocation classifier) run as single numpy expressions.
    """

    def __init__(self, cities: Optional[Iterable[City]] = None) -> None:
        if cities is None:
            cities = (
                City(name, country, GeoPoint(lat, lon), pop)
                for name, country, lat, lon, pop in _CITY_ROWS
            )
        self._cities: List[City] = list(cities)
        if not self._cities:
            raise ValueError("CityDB requires at least one city")
        by_key: Dict[Tuple[str, str], City] = {}
        for city in self._cities:
            if city.key in by_key:
                raise ValueError(f"duplicate city {city.key}")
            by_key[city.key] = city
        self._by_key = by_key
        self._lats = np.array([c.location.lat for c in self._cities])
        self._lons = np.array([c.location.lon for c in self._cities])
        self._pops = np.array([c.population for c in self._cities])
        # Derived geometry, computed once: radian coordinates feed the
        # radians-native haversine (skipping the degree conversion in the
        # classification hot loop) and unit vectors serve aggregate
        # queries such as spherical centroids.
        self._lat_rad = np.radians(self._lats)
        self._lon_rad = np.radians(self._lons)
        self._units = unit_vectors(self._lat_rad, self._lon_rad)
        for arr in (
            self._lats,
            self._lons,
            self._pops,
            self._lat_rad,
            self._lon_rad,
            self._units,
        ):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self._cities)

    def __iter__(self):
        return iter(self._cities)

    @property
    def cities(self) -> Sequence[City]:
        return tuple(self._cities)

    def get(self, name: str, country: Optional[str] = None) -> City:
        """Look up a city by name (and country, if ambiguous)."""
        if country is not None:
            try:
                return self._by_key[(name, country)]
            except KeyError:
                raise KeyError(f"unknown city {name},{country}") from None
        matches = [c for c in self._cities if c.name == name]
        if not matches:
            raise KeyError(f"unknown city {name!r}")
        if len(matches) > 1:
            raise KeyError(f"ambiguous city {name!r}: specify country")
        return matches[0]

    def city_at(self, index: int) -> City:
        """The city at a gazetteer index (the order of :meth:`__iter__`)."""
        return self._cities[index]

    def population_array(self) -> np.ndarray:
        """Cached read-only population vector, aligned with city indices.

        Classifiers build their weight vectors by slicing this array
        instead of touching per-city Python objects.
        """
        return self._pops

    def coordinates(self) -> Tuple[np.ndarray, np.ndarray]:
        """Cached read-only ``(lat, lon)`` degree arrays (city order)."""
        return self._lats, self._lons

    def coordinates_radians(self) -> Tuple[np.ndarray, np.ndarray]:
        """Cached read-only ``(lat, lon)`` radian arrays (city order)."""
        return self._lat_rad, self._lon_rad

    def spherical_centroid(self, indices: Sequence[int]) -> GeoPoint:
        """Spherical centroid of a set of cities (by gazetteer index)."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("centroid of empty city set")
        mean = self._units[idx].mean(axis=0)
        norm = float(np.linalg.norm(mean))
        if norm < 1e-12:
            raise ValueError("degenerate city set: centroid undefined")
        x, y, z = (mean / norm).tolist()
        return GeoPoint(
            float(np.degrees(np.arcsin(min(1.0, max(-1.0, z))))),
            float(np.degrees(np.arctan2(y, x))),
        )

    def cities_in_disk(self, disk: Disk) -> List[City]:
        """All cities whose centers lie inside the disk."""
        return [self._cities[i] for i in self.city_indices_in_disk(disk)]

    def distances_km(self, point: GeoPoint) -> np.ndarray:
        """Distance from every city to ``point`` (city order)."""
        return distances_to_point_km(self._lats, self._lons, point)

    def city_indices_in_disk(self, disk: Disk) -> np.ndarray:
        """Gazetteer indices of all cities inside the disk (ascending)."""
        return np.nonzero(self.distances_km(disk.center) <= disk.radius_km + 1e-9)[0]

    def center_distance_matrix(self, disks: Sequence[Disk]) -> np.ndarray:
        """Distances from every city to every disk center, ``(n_cities, k)``.

        One vectorized haversine over the cached radian arrays; column *j*
        is bit-identical to ``distances_to_point_km(..., disks[j].center)``.
        """
        lats = np.radians([d.center.lat for d in disks])
        lons = np.radians([d.center.lon for d in disks])
        return pairwise_distances_from_radians(
            self._lat_rad, self._lon_rad, lats, lons
        )

    def classify_disks(
        self,
        disks: Sequence[Disk],
        population_exponent: float = 1.0,
        center_distances: Optional[np.ndarray] = None,
    ) -> List:
        """Batched replica classification: one replica per disk.

        Equivalent to running :func:`repro.core.geolocation.classify_disk`
        (with the :func:`~repro.core.geolocation.classify_nearest`
        fallback) on each disk: disk *j* is centered on column *j* of the
        city-to-center matrix (one vectorized haversine call unless the
        caller passes ``center_distances``), and the whole batch is one
        :meth:`DiskTables.classify` call over the :meth:`disk_tables` of
        those centers — no per-disk arithmetic.
        """
        from ..core.geolocation import GeolocatedReplica  # local: avoids cycle

        if center_distances is None:
            center_distances = self.center_distance_matrix(disks)
        if center_distances.shape != (len(self._cities), len(disks)):
            raise ValueError("center_distances shape mismatch")
        cities, confidence = self.disk_tables(center_distances, population_exponent).classify(
            np.arange(len(disks)), [disk.radius_km for disk in disks]
        )
        return [
            GeolocatedReplica(city=self._cities[city], disk=disk, confidence=share)
            for disk, city, share in zip(disks, cities.tolist(), confidence.tolist())
        ]

    def disk_tables(
        self, center_distances: np.ndarray, population_exponent: float = 1.0
    ) -> DiskTables:
        """Sorted per-center city tables over a ``(n_cities, n_centers)`` matrix.

        Build once per center set and exponent; :meth:`DiskTables.classify`
        then geolocates any batch of disks centered on those points.
        """
        if population_exponent < 0:
            raise ValueError("population_exponent must be non-negative")
        if center_distances.shape[0] != len(self._cities):
            raise ValueError("center_distances shape mismatch")
        return DiskTables(
            center_distances, self._pops**population_exponent, population_exponent == 0.0
        )

    def largest_in_disk(self, disk: Disk) -> Optional[City]:
        """The most populous city inside the disk, or ``None`` if empty.

        This is the paper's geolocation criterion reduced to its essence:
        the population prior has "sufficient discriminative power alone"
        (~75% accuracy), so the MLE collapses to picking the largest city.
        """
        inside = self.distances_km(disk.center) <= disk.radius_km + 1e-9
        if not inside.any():
            return None
        pops = np.where(inside, self._pops, -np.inf)
        return self._cities[int(np.argmax(pops))]

    def nearest(self, point: GeoPoint) -> City:
        """The city nearest to ``point`` (no population weighting)."""
        return self._cities[int(np.argmin(self.distances_km(point)))]

    def sample(self, rng: np.random.Generator, count: int, weight_by_population: bool = True) -> List[City]:
        """Draw ``count`` cities (with replacement), optionally population-weighted."""
        return [self._cities[i] for i in self.sample_indices(rng, count, weight_by_population)]

    def sample_indices(
        self, rng: np.random.Generator, count: int, weight_by_population: bool = True
    ) -> np.ndarray:
        """:meth:`sample` as gazetteer indices: the same draws, no objects.

        Used by the synthetic-Internet builder to place unicast hosts where
        people (and therefore networks) are.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if weight_by_population:
            weights = self._pops / self._pops.sum()
            return rng.choice(len(self._cities), size=count, p=weights)
        return rng.integers(0, len(self._cities), size=count)


_DEFAULT_DB: Optional[CityDB] = None


def default_city_db() -> CityDB:
    """Return the process-wide default :class:`CityDB` (lazily built)."""
    global _DEFAULT_DB
    if _DEFAULT_DB is None:
        _DEFAULT_DB = CityDB()
    return _DEFAULT_DB
